"""Command-line interface: parsing, validation, artifacts, determinism."""

import json
import math

import pytest

from rtspectra import cli

BASE_INI = """
[geometry]
h_minus = -1.0
h_plus = 1.0
L1 = 1.0
L2 = 1.0

[equilibrium]
law_plus = linear
c2_plus = 1.0
law_minus = linear
c2_minus = 2.0
g = 1.0
rho_plus_interface = 2.0

[physics]
mu_plus = 0.1
mu_minus = 0.1
bulk_plus = 0.1
bulk_minus = 0.1

{medium}

[numerics]
n_per_layer = 30
k_max = 1
k1 = 1
k2 = 0

[output]
path = {out}
format = csv
"""

MHD_BLOCK = "[mhd]\nlambda = 1.0\nm3 = 0.0\n"
VE_BLOCK = "[viscoelastic]\nkappa_plus = 0.55\nkappa_minus = 0.55\n"


def write_config(tmp_path, medium=MHD_BLOCK, name="run.ini", **edits):
    out = tmp_path / "artifact.csv"
    text = BASE_INI.format(medium=medium, out=out)
    for old, new in edits.items():
        text = text.replace(old, new)
    path = tmp_path / name
    path.write_text(text)
    return path


def test_validation_negative_mu(tmp_path, capsys):
    cfgp = write_config(tmp_path, **{"mu_plus = 0.1": "mu_plus = -0.5"})
    assert cli.run(str(cfgp), "xi") == 2
    assert "mu_plus" in capsys.readouterr().err


def test_validation_nan_values(tmp_path):
    # NaN used to pass: g = nan hung the equilibrium ODE, bulk_plus = nan exited 0
    for old, new in (("g = 1.0", "g = nan"), ("bulk_plus = 0.1", "bulk_plus = nan")):
        assert cli.run(str(write_config(tmp_path, **{old: new})), "xi") == 2


def test_validation_degenerate_mesh(tmp_path, capsys):
    cfgp = write_config(tmp_path, **{"n_per_layer = 30": "n_per_layer = 400\ngrading = 1.05"})
    assert cli.run(str(cfgp), "xi") == 2
    assert "smallest element" in capsys.readouterr().err
    # subcommands that build no mesh are unaffected
    assert cli.run(str(cfgp), "equilibrium", out=str(tmp_path / "profile.csv")) == 0


def test_validation_medium_blocks(tmp_path):
    assert cli.run(str(write_config(tmp_path, medium="")), "xi") == 2
    assert cli.run(str(write_config(tmp_path, medium=MHD_BLOCK + "\n" + VE_BLOCK)), "xi") == 2


def test_config_parse_error(tmp_path):
    p = tmp_path / "broken.ini"
    p.write_text("not an ini ][ at all")
    assert cli.run(str(p), "scan") == 2
    assert cli.run(str(tmp_path / "missing.ini"), "scan") == 2


def test_unknown_subcommand(tmp_path):
    assert cli.run(str(write_config(tmp_path)), "frobnicate") == 2


def test_json_config_equivalent(tmp_path, capsys):
    out = tmp_path / "xi.json"
    payload = {
        "geometry": {"h_minus": -1.0, "h_plus": 1.0, "L1": 1.0, "L2": 1.0},
        "equilibrium": {"law_plus": "linear", "c2_plus": 1.0, "law_minus": "linear",
                        "c2_minus": 2.0, "g": 1.0, "rho_plus_interface": 2.0},
        "physics": {"mu_plus": 0.1, "mu_minus": 0.1, "bulk_plus": 0.1, "bulk_minus": 0.1},
        "mhd": {"lambda": 1.0, "m3": 0.0},
        "numerics": {"n_per_layer": 30, "k1": 1, "k2": 0},
        "output": {"path": str(out), "format": "json"},
    }
    p = tmp_path / "run.json"
    p.write_text(json.dumps(payload))
    assert cli.run(str(p), "xi") == 0
    report = json.loads(out.read_text())
    assert report["schema_version"] == 1
    assert report["xi_value"] == "inf"


def test_equilibrium_artifact(tmp_path, capsys):
    cfgp = write_config(tmp_path)
    out = tmp_path / "eq.csv"
    assert cli.run(str(cfgp), "equilibrium", out=str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "y3,rho,rho_prime,p_prime_rho,layer"
    assert "rt_condition=true" in capsys.readouterr().out


def test_scan_csv_schema_and_summary(tmp_path, capsys):
    cfgp = write_config(tmp_path)
    out = tmp_path / "scan.csv"
    assert cli.run(str(cfgp), "scan", out=str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "k1,k2,xi1,xi2,xi_value,alpha0,lambda,residual"
    # one record per scanned half-lattice mode for k_max = 1
    assert len(lines) == 1 + 5
    assert any(",inf," in line for line in lines[1:])
    summary = json.loads((tmp_path / "scan.csv.summary.json").read_text())
    assert summary["summary"]["global_xi"] == "inf"
    printed = capsys.readouterr().out
    assert "global_xi=inf" in printed and "truncation_converged=false" in printed


def test_scan_json_format(tmp_path):
    cfgp = write_config(tmp_path)
    out = tmp_path / "scan.json"
    assert cli.run(str(cfgp), "scan", out=str(out), fmt="json") == 0
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == 1
    assert {r["k1"] for r in doc["records"]} == {0, 1}
    assert doc["summary"]["global_lambda"] > 0


def test_scan_determinism(tmp_path):
    cfgp = write_config(tmp_path)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli.run(str(cfgp), "scan", out=str(out1)) == 0
    assert cli.run(str(cfgp), "scan", out=str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert (tmp_path / "a.csv.summary.json").read_bytes() \
        == (tmp_path / "b.csv.summary.json").read_bytes()


def test_xi_matches_scan(tmp_path):
    # stable stratification and a horizontal field normal to the mode: the
    # denominator is singular, so the null-space threshold sets xi
    cfgp = write_config(tmp_path, **{
        "c2_plus = 1.0": "c2_plus = 2.0", "c2_minus = 2.0": "c2_minus = 1.0",
        "rho_plus_interface = 2.0": "rho_plus_interface = 1.0",
        "m3 = 0.0": "m2 = 1.0\nm3 = 0.0", "k_max = 1": "k_max = 1\neig_tol = 1e-3"})
    xi_out, scan_out = tmp_path / "xi.json", tmp_path / "scan.csv"
    assert cli.run(str(cfgp), "xi", out=str(xi_out)) == 0
    assert cli.run(str(cfgp), "scan", out=str(scan_out)) == 0
    xi_value = json.loads(xi_out.read_text())["xi_value"]
    rows = [line.split(",") for line in scan_out.read_text().splitlines()[1:]]
    scanned = [float(r[4]) for r in rows if (r[0], r[1]) == ("1", "0")]
    assert math.isfinite(xi_value) and scanned == [xi_value]


def test_thresholds_viscoelastic(tmp_path, capsys):
    cfgp = write_config(tmp_path, medium=VE_BLOCK)
    out = tmp_path / "thr.json"
    assert cli.run(str(cfgp), "thresholds", out=str(out)) == 0
    printed = capsys.readouterr().out
    assert "kappa_threshold=0.5" in printed
    doc = json.loads(out.read_text())
    assert doc["reports"][0]["sufficient_stability"] is True


def test_thresholds_mhd(tmp_path, capsys):
    cfgp = write_config(tmp_path, **{"m3 = 0.0": "m3 = 2.3"})
    assert cli.run(str(cfgp), "thresholds", out=str(tmp_path / "t.json")) == 0
    assert "sufficient_stability=true" in capsys.readouterr().out


def test_witness_horizontal(tmp_path, capsys):
    cfgp = write_config(tmp_path, **{"m3 = 0.0": "m1 = 1.0", "L1 = 1.0": "L1 = 4.0",
                                     "k2 = 0": "k2 = 1"})
    out = tmp_path / "wit.json"
    assert cli.run(str(cfgp), "witness", out=str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "horizontal_field"
    assert doc["positive"] is True


def test_witness_small_field(tmp_path):
    cfgp = write_config(tmp_path, **{"m3 = 0.0": "m3 = 0.02"})
    out = tmp_path / "wit.json"
    assert cli.run(str(cfgp), "witness", out=str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "small_field"
    assert doc["energy_value"] > 0


def test_evolve_artifacts(tmp_path, capsys):
    cfgp = write_config(tmp_path, **{"k_max = 1": "k_max = 1\nfixed_point_tol = 1e-6"})
    cfg_text = cfgp.read_text() + "\n[evolution]\ndt = 0.02\nt = 8.0\nseed = 1\n"
    cfgp.write_text(cfg_text)
    out = tmp_path / "traj.csv"
    assert cli.run(str(cfgp), "evolve", out=str(out)) == 0
    assert out.read_text().splitlines()[0] == "t,eta_norm,u_norm"
    rate = json.loads((tmp_path / "traj.csv.rate.json").read_text())
    assert rate["lambda"] > 0
    assert "fitted_rate" in rate


def test_main_entry(tmp_path):
    cfgp = write_config(tmp_path, medium=VE_BLOCK)
    code = cli.main(["thresholds", "--config", str(cfgp), "--out", str(tmp_path / "x.json")])
    assert code == 0


def test_validation_evolve_horizon(tmp_path, capsys):
    """T must cover 10 steps: checked in the config, and again once dt or T comes from Lambda."""
    cfgp = write_config(tmp_path)
    cfgp.write_text(cfgp.read_text() + "\n[evolution]\ndt = 0.5\nt = 4.0\n")
    assert cli.run(str(cfgp), "evolve") == 2
    assert "10 steps" in capsys.readouterr().err
    # T defaults to 10/Lambda, less than 10 steps of this dt (and dt*Lambda < 2)
    cfgp = write_config(tmp_path)
    cfgp.write_text(cfgp.read_text() + "\n[evolution]\ndt = 6.0\n")
    assert cli.run(str(cfgp), "evolve") == 2
    assert "10 steps" in capsys.readouterr().err


def test_solver_value_error_exit_code(tmp_path, monkeypatch, capsys):
    """A ValueError raised while solving is a solver error (3), not a config error (2)."""
    def broken(*args, **kwargs):
        raise ValueError("broken solver")

    monkeypatch.setattr(cli.spectral, "xi_per_mode", broken)
    assert cli.run(str(write_config(tmp_path)), "xi") == 3
    assert "broken solver" in capsys.readouterr().err
    # a malformed thread count is still a configuration error
    monkeypatch.setenv("RT_SPECTRA_THREADS", "two")
    assert cli.run(str(write_config(tmp_path)), "xi") == 2
