"""Command-line interface: parsing, validation, artifacts, determinism."""

import json
import math
import os
import re
from pathlib import Path

import pytest

from conftest import run_python
from rtspectra import cli
from rtspectra.errors import InputError, SolverError

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
"""

MHD_BLOCK = "[mhd]\nlambda = 1.0\nm3 = 0.0\n"
VE_BLOCK = "[viscoelastic]\nkappa_plus = 0.55\nkappa_minus = 0.55\n"


def write_config(tmp_path, medium=MHD_BLOCK, name="run.ini", **edits):
    text = BASE_INI.format(medium=medium)
    for old, new in edits.items():
        text = text.replace(old, new)
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8", "surrogateescape"))     # "\udcff" is the byte 0xff
    return path


def test_validation_negative_mu(tmp_path, capsys):
    cfgp = write_config(tmp_path, **{"mu_plus = 0.1": "mu_plus = -0.5"})
    assert cli.run(str(cfgp), "xi", out=str(tmp_path / "xi.json")) == 2
    assert "mu_plus" in capsys.readouterr().err


def test_validation_nan_values(tmp_path):
    # NaN used to pass: g = nan hung the equilibrium ODE, bulk_plus = nan exited 0
    for old, new in (("g = 1.0", "g = nan"), ("bulk_plus = 0.1", "bulk_plus = nan")):
        assert cli.run(str(write_config(tmp_path, **{old: new})), "xi",
                       out=str(tmp_path / "xi.json")) == 2


# (subcommand, edits, stderr fragment): inadmissible input, each refused by the
# type or function that owns it
INADMISSIBLE = {
    "gamma_plus=1": ("scan", {"law_plus = linear\nc2_plus = 1.0":
                              "law_plus = polytropic\nK_plus = 1.0\ngamma_plus = 1.0"},
                     "gamma > 1"),
    "m3=nan": ("scan", {"m3 = 0.0": "m3 = nan"}, "M must be finite"),
    "m3=inf": ("scan", {"m3 = 0.0": "m3 = inf"}, "M must be finite"),
    "mu_plus=inf": ("scan", {"mu_plus = 0.1": "mu_plus = inf"}, "mu_plus"),
    "g=inf": ("scan", {"g = 1.0": "g = inf"}, "g must be"),
    "rho_plus_interface=inf": ("scan", {"rho_plus_interface = 2.0": "rho_plus_interface = inf"},
                               "upper anchor"),
    "L1=inf": ("scan", {"L1 = 1.0": "L1 = inf"}, "periods"),
    "quadrature_order=0": ("scan", {"k_max = 1": "k_max = 1\nquadrature_order = 0"},
                           "quadrature order"),
    "h_plus=1e-300": ("xi", {"h_plus = 1.0": "h_plus = 1e-300"}, "smallest element"),
    # lower densities up to 1.4e217: the coefficient, not the element, overflows
    "h_minus=-1000": ("xi", {"h_minus = -1.0": "h_minus = -1000"}, "density"),
    # a scan refuses such a grid once, not as one failed mode per lattice point
    "scan:h_plus=1e-300": ("scan", {"h_plus = 1.0": "h_plus = 1e-300"}, "smallest element"),
    "scan:h_minus=-1000": ("scan", {"h_minus = -1.0": "h_minus = -1000"}, "density"),
    "witness_k1=0": ("witness", {"m3 = 0.0": "m1 = 1.0", "k1 = 1": "k1 = 0", "k2 = 0": "k2 = 1"},
                     "xi1 != 0"),
    # a misspelled key or section is refused, never replaced by the defaults
    "n_per_layr": ("scan", {"n_per_layer = 30": "n_per_layr = 30"},
                   "unknown key 'n_per_layr' in section [numerics]"),
    "[numerix]": ("scan", {"[numerics]": "[numerix]"}, "unknown section [numerix]"),
    # the retired eig_tol is refused like any other unknown key
    "eig_tol": ("scan", {"k_max = 1": "k_max = 1\neig_tol = 1e-3"},
                "unknown key 'eig_tol' in section [numerics]"),
    # [DEFAULT] is a section like any other, not keys merged into every section
    "[DEFAULT]": ("scan", {"[numerics]\nn_per_layer = 30":
                           "[DEFAULT]\nn_per_layer = 30\n\n[numerics]"},
                  "unknown section [default]"),
    "non-utf-8": ("xi", {"g = 1.0": "g = 1.0 ; \udcff"}, "config is not UTF-8 text"),
    # sizes refused before any array of n elements or order^2 entries is built; each
    # such array would exceed the address space (7 PiB, a 728 TiB companion matrix)
    "n_per_layer=1e15": ("xi", {"n_per_layer = 30": "n_per_layer = 1000000000000000"},
                         "smallest element"),
    "n_per_layer=1e19": ("xi", {"n_per_layer = 30": "n_per_layer = 10000000000000000000"},
                         "smallest element"),
    "quadrature_order=1e7": ("xi", {"k_max = 1": "k_max = 1\nquadrature_order = 10000000"},
                             "quadrature order"),
    "quadrature_order=1e19": ("xi", {"k_max = 1": "k_max = 1\nquadrature_order = "
                                                  "10000000000000000000"}, "quadrature order"),
    # the band overflows because of the wave number, which the message names
    "L1=1e-300": ("xi", {"L1 = 1.0": "L1 = 1e-300"}, "|xi| = 1.000e+300"),
    # an overflow names the value that overflowed, and no RuntimeWarning follows it
    "m3=1e150": ("xi", {"m3 = 0.0": "m3 = 1e150"}, "lambda*|M|^2 = 1.000e+300"),
    "m3=1e160": ("xi", {"m3 = 0.0": "m3 = 1e160"}, "lambda*|M|^2 must be finite"),
    "m1=1e200": ("xi", {"m3 = 0.0": "m1 = 1e200"}, "lambda*|M|^2 must be finite"),
    "lambda=1e300": ("xi", {"lambda = 1.0": "lambda = 1e300", "m3 = 0.0": "m3 = 1e10"},
                     "lambda*|M|^2 must be finite"),
    "mu_plus=1e308": ("xi", {"mu_plus = 0.1": "mu_plus = 1e308"},
                      "the mu coefficient's shape-function moments overflow"),
    "kappa_plus=1e308": ("xi", {MHD_BLOCK: VE_BLOCK.replace("kappa_plus = 0.55",
                                                            "kappa_plus = 1e308")},
                         "the kappa coefficient's shape-function moments overflow"),
}


@pytest.mark.parametrize("case", sorted(INADMISSIBLE))
def test_validation_inadmissible_values(tmp_path, capfd, case):
    """Exit 2 before any solve: nothing reaches stdout, not even LAPACK's own lines."""
    subcommand, edits, fragment = INADMISSIBLE[case]
    assert cli.run(str(write_config(tmp_path, **edits)), subcommand,
                   out=str(tmp_path / "artifact")) == 2
    captured = capfd.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and fragment in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("cls, code", [(InputError, 2), (SolverError, 3)])
def test_error_class_decides_exit_code(tmp_path, monkeypatch, capsys, cls, code):
    """The class alone decides the exit code, wherever it is raised."""
    def failing(*args, **kwargs):
        raise cls("raised while solving")

    monkeypatch.setattr(cli.spectral, "xi_per_mode", failing)
    assert cli.run(str(write_config(tmp_path)), "xi", out=str(tmp_path / "xi.json")) == code
    assert "raised while solving" in capsys.readouterr().err
    # a scan lists a mode's SolverError as a failed mode; an InputError ends it
    monkeypatch.setattr(cli.spectral, "analyze_mode", failing)
    out = tmp_path / "scan.csv"
    assert cli.run(str(write_config(tmp_path)), "scan", out=str(out)) == code
    assert "raised while solving" in capsys.readouterr().err
    assert out.exists() == (cls is SolverError)


# meshes whose smallest element lies below the floor; the second is the growth_mixed
# seed-1 field on the k_max = 4 lattice, whose scan exited 3 with 11 failed modes
# while meshes down to 1e-9 of a layer were admitted
DEGENERATE_MESHES = {
    "n400-grading1.05": {"n_per_layer = 30": "n_per_layer = 400\ngrading = 1.05"},
    "n200-grading1.09-growth_mixed": {
        "n_per_layer = 30": "n_per_layer = 200\ngrading = 1.09", "k_max = 1": "k_max = 4",
        "m3 = 0.0": "m1 = 0.03971459135832493\nm2 = -0.0647371078605183\n"
                    "m3 = -0.023923720410093906"},
}


@pytest.mark.parametrize("case", sorted(DEGENERATE_MESHES))
def test_validation_degenerate_mesh(tmp_path, capsys, case):
    """xi and scan refuse the mesh before any solve: exit 2, one error line
    naming the smallest element, and no artifact."""
    cfgp = write_config(tmp_path, **DEGENERATE_MESHES[case])
    for subcommand in ("xi", "scan"):
        out = tmp_path / f"{subcommand}.csv"
        assert cli.run(str(cfgp), subcommand, out=str(out)) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert "smallest element" in lines[0]
        assert not out.exists() and not Path(f"{out}.summary.json").exists()
    # subcommands that build no mesh are unaffected
    assert cli.run(str(cfgp), "equilibrium", out=str(tmp_path / "profile.csv")) == 0


def test_validation_huge_k_max(tmp_path, monkeypatch, capfd):
    """A k_max whose half lattice would not fit in memory is refused before
    any band polynomial or lattice is built: exit 2, one error line naming
    the bound, and no artifact."""
    def unreachable(*args, **kwargs):
        raise AssertionError("built for a refused k_max")

    monkeypatch.setattr(cli.spectral, "BandPolynomial", unreachable)
    monkeypatch.setattr(cli.spectral, "mode_lattice", unreachable)
    out = tmp_path / "scan.csv"
    cfgp = write_config(tmp_path, **{"k_max = 1": "k_max = 1000000000000000000"})
    assert cli.run(str(cfgp), "scan", out=str(out)) == 2
    captured = capfd.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error: k_max must be between 1 and 223"), captured.err
    assert not out.exists() and not Path(f"{out}.summary.json").exists()


def test_validation_medium_blocks(tmp_path):
    out = str(tmp_path / "xi.json")
    assert cli.run(str(write_config(tmp_path, medium="")), "xi", out=out) == 2
    assert cli.run(str(write_config(tmp_path, medium=MHD_BLOCK + "\n" + VE_BLOCK)), "xi",
                   out=out) == 2


def test_config_parse_error(tmp_path):
    p = tmp_path / "broken.ini"
    p.write_text("not an ini ][ at all")
    out = str(tmp_path / "scan.csv")
    assert cli.run(str(p), "scan", out=out) == 2
    assert cli.run(str(tmp_path / "missing.ini"), "scan", out=out) == 2


def test_unknown_subcommand(tmp_path):
    assert cli.run(str(write_config(tmp_path)), "frobnicate", out=str(tmp_path / "out")) == 2


def test_readme_config_parses(tmp_path):
    """The README's INI example parses as documented; so does its polytropic
    variant (K_plus / gamma_plus, as its comment says)."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    ini = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
    (tmp_path / "readme.ini").write_text(ini)
    cfg = cli.parse_config(str(tmp_path / "readme.ini"))
    assert cfg.params.medium == "mhd" and cfg.params.M == (0.0, 0.0, 2.4)
    assert (cfg.geometry.L1, cfg.geometry.L2, cfg.law_plus.kind) == (1.0, 1.0, "linear")
    assert (cfg.n_per_layer, cfg.k_max, cfg.k1) == (200, 8, 1)

    poly = re.sub(r"law_plus = linear.*\nc2_plus = 1.0",
                  "law_plus = polytropic\nK_plus = 1.5\ngamma_plus = 1.4", ini)
    (tmp_path / "poly.ini").write_text(poly)
    law = cli.parse_config(str(tmp_path / "poly.ini")).law_plus
    assert (law.kind, law.K, law.gamma) == ("polytropic", 1.5, 1.4)


def test_config_keys_differing_only_in_case(tmp_path, capsys):
    """Keys and section names ignore case, so two that differ only in case
    are one given twice: exit 2 with one error line naming it."""
    for edits, fragment in (
            ({"m3 = 0.0": "m3 = 0.0\nM3 = 2.0"}, "option 'm3' in section 'mhd' already exists"),
            ({"[mhd]": "[MHD]\nm1 = 0.5\n\n[mhd]"}, "duplicate section [mhd]")):
        cfgp = write_config(tmp_path, **edits)
        assert cli.run(str(cfgp), "xi", out=str(tmp_path / "xi.json")) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and fragment in err and len(err.splitlines()) == 1


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
    assert cli.run(str(cfgp), "scan", out=str(out)) == 0
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


# (subcommand, suffix of --out): {artifact: its top-level JSON keys, or None for a CSV}
ARTIFACTS = {
    ("equilibrium", None): {"out": None},
    ("xi", None): {"out": {"schema_version", "k1", "k2", "xi_value", "medium"}},
    ("growth", None): {"out": {"schema_version", "k1", "k2", "alpha0", "lambda", "residual",
                               "medium"}},
    ("scan", None): {"out": None, "out.summary.json": {"schema_version", "summary"}},
    ("scan", "json"): {"out.json": {"schema_version", "records", "summary"}},
    ("witness", None): {"out": {"schema_version", "kind", "k1", "k2", "energy_value",
                                "closed_form_value", "positive"}},
    ("thresholds", None): {"out": {"schema_version", "reports"}},
    ("evolve", None): {"out": None,
                       "out.rate.json": {"schema_version", "lambda", "fitted_rate", "relative_gap",
                                         "energy_balance_residual", "dt", "T", "seed"}},
}


@pytest.mark.parametrize("subcommand, suffix", sorted(ARTIFACTS, key=str))
def test_subcommand_determinism(tmp_path, capfd, subcommand, suffix):
    """Criterion 13 for every subcommand: a second run writes the same artifacts
    and prints the same lines, and each JSON artifact keeps its top-level keys."""
    cfgp = write_config(tmp_path, **{"m3 = 0.0": "m3 = 0.02"})
    cfgp.write_text(cfgp.read_text() + "\n[evolution]\ndt = 0.05\nt = 1.0\nseed = 1\n")
    expected = ARTIFACTS[subcommand, suffix]
    out = "out" if suffix is None else f"out.{suffix}"
    runs = []
    for _ in range(2):
        assert cli.run(str(cfgp), subcommand, out=str(tmp_path / out)) == 0
        assert {p.name for p in tmp_path.iterdir()} == {cfgp.name, *expected}
        runs.append(({name: (tmp_path / name).read_bytes() for name in expected},
                     capfd.readouterr()))
    assert runs[0] == runs[1]
    for name, keys in expected.items():
        if keys is not None:
            assert set(json.loads(runs[0][0][name])) == keys


# (mhd block edit, failing modes, expected failed modes): a mixed field solves
# (1,1) alone; without a horizontal field the class {(1,-1), (1,1)} is solved
# once, at (1,-1), and both members fail
FAILING_SCANS = {
    "mixed": ({"m3 = 0.0": "m1 = 0.05\nm2 = -0.03\nm3 = 0.1"},
              lambda mode: (mode.k1, mode.k2) == (1, 1), ["1,1"]),
    "isotropic": ({}, lambda mode: mode.norm2 == 2.0, ["1,-1", "1,1"]),
}


@pytest.mark.parametrize("field", sorted(FAILING_SCANS))
def test_scan_failed_mode_exit_code(tmp_path, monkeypatch, capsys, field):
    """A scan with a failed mode writes its artifacts, then exits 3."""
    edits, fails, failed = FAILING_SCANS[field]
    real = cli.spectral.analyze_mode

    def failing(matrices, *args, **kwargs):
        if fails(matrices.mode):
            raise SolverError("no convergence")
        return real(matrices, *args, **kwargs)

    monkeypatch.setattr(cli.spectral, "analyze_mode", failing)
    out = tmp_path / "scan.csv"
    assert cli.run(str(write_config(tmp_path, **edits)), "scan", out=str(out)) == 3
    assert len(out.read_text().splitlines()) == 1 + 5 - len(failed)
    summary = json.loads((tmp_path / "scan.csv.summary.json").read_text())["summary"]
    assert summary["errors"] == {k: "SolverError: no convergence" for k in failed}
    captured = capsys.readouterr()
    assert "global_xi=" in captured.out
    for k in failed:
        assert f"failed mode ({k}): SolverError: no convergence" in captured.err


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_scan_all_failed_strict_json(tmp_path, monkeypatch, capsys, fmt):
    """With no mode solved there is no global xi: null in strict JSON, none on stdout."""
    def failing(*args, **kwargs):
        raise SolverError("no convergence")

    monkeypatch.setattr(cli.spectral, "analyze_mode", failing)
    out = tmp_path / f"scan.{fmt}"
    assert cli.run(str(write_config(tmp_path)), "scan", out=str(out)) == 3
    path = tmp_path / "scan.csv.summary.json" if fmt == "csv" else out
    summary = json.loads(path.read_text(), parse_constant=_reject_constant)["summary"]
    assert summary["global_xi"] is None and summary["global_lambda"] is None
    assert len(summary["errors"]) == 5
    assert "global_xi=none global_lambda=none" in capsys.readouterr().out


def _xi_and_scan_row(tmp_path, cfgp, k):
    """xi_value of the xi subcommand, and those of the scan rows of mode k."""
    xi_out, scan_out = tmp_path / "xi.json", tmp_path / "scan.csv"
    assert cli.run(str(cfgp), "xi", out=str(xi_out)) == 0
    assert cli.run(str(cfgp), "scan", out=str(scan_out)) == 0
    xi_value = json.loads(xi_out.read_text())["xi_value"]
    rows = [line.split(",") for line in scan_out.read_text().splitlines()[1:]]
    return xi_value, [float(r[4]) for r in rows if (r[0], r[1]) == k]


def test_xi_matches_scan(tmp_path):
    # stable stratification and a horizontal field normal to the mode: the
    # transverse component is in the kernel of both forms, and xi is the
    # closed form S/(S + lam*|M_h|^2), S = sup P'(rho)*rho = 2e
    cfgp = write_config(tmp_path, **{
        "c2_plus = 1.0": "c2_plus = 2.0", "c2_minus = 2.0": "c2_minus = 1.0",
        "rho_plus_interface = 2.0": "rho_plus_interface = 1.0",
        "m3 = 0.0": "m2 = 1.0\nm3 = 0.0"})
    xi_value, scanned = _xi_and_scan_row(tmp_path, cfgp, ("1", "0"))
    assert xi_value == 2.0 * math.e / (2.0 * math.e + 1.0) and scanned == [xi_value]


def test_xi_matches_scan_mixed_field(tmp_path):
    """A weak mixed field (complex pencils, no isotropy shortcut) on the unstable
    profile: the xi subcommand solves alpha(0) itself to start its solve, the
    scan hands analyze_mode's over, and both give the same bits."""
    cfgp = write_config(tmp_path, **{"m3 = 0.0": "m1 = 0.05\nm2 = -0.03\nm3 = 0.1",
                                     "k2 = 0": "k2 = 1"})
    xi_value, scanned = _xi_and_scan_row(tmp_path, cfgp, ("1", "1"))
    assert 1.0 < xi_value < math.inf and scanned == [xi_value]


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


def test_witness_small_field(tmp_path, capsys):
    cfgp = write_config(tmp_path, **{"m3 = 0.0": "m3 = 0.02"})
    out = tmp_path / "wit.json"
    assert cli.run(str(cfgp), "witness", out=str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "small_field"
    assert doc["energy_value"] > 0
    # recorded on a whole-domain grid of 131,323 nodes
    assert doc["energy_value"] == pytest.approx(0.8002481240161288, rel=1e-13)
    printed = capsys.readouterr().out
    assert "agreement=" in printed and "quadrature_points=" in printed


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


def test_one_growth_path(tmp_path):
    """growth, the scan row of its mode and evolve's rate.json report the same
    lambda bits for an unstable mode of a mixed field (complex pencils)."""
    cfgp = write_config(tmp_path, **{"m3 = 0.0": "m1 = 0.04\nm2 = -0.03\nm3 = 0.02"})
    cfgp.write_text(cfgp.read_text() + "\n[evolution]\ndt = 0.05\nt = 1.0\nseed = 1\n")
    growth, scan, traj = tmp_path / "growth.json", tmp_path / "scan.csv", tmp_path / "traj.csv"
    assert cli.run(str(cfgp), "growth", out=str(growth)) == 0
    assert cli.run(str(cfgp), "scan", out=str(scan)) == 0
    assert cli.run(str(cfgp), "evolve", out=str(traj)) == 0
    lam = json.loads(growth.read_text())["lambda"]
    rows = [line.split(",") for line in scan.read_text().splitlines()[1:]]
    scanned = [float(r[6]) for r in rows if (r[0], r[1]) == ("1", "0")]
    evolved = json.loads((tmp_path / "traj.csv.rate.json").read_text())["lambda"]
    assert lam > 0 and scanned == [lam] and evolved == lam


@pytest.mark.parametrize("subcommand", ["xi", "scan", "evolve", "equilibrium"])
def test_unwritable_artifact_exit_code(tmp_path, capsys, subcommand):
    """An artifact path in a missing directory: exit 2 and one error line naming
    it, not a traceback."""
    cfgp = write_config(tmp_path)
    cfgp.write_text(cfgp.read_text() + "\n[evolution]\ndt = 0.05\nt = 1.0\n")
    out = tmp_path / "no_such_dir" / "artifact.json"
    assert cli.run(str(cfgp), subcommand, out=str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err and len(err.splitlines()) == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("subcommand", ["xi", "scan", "evolve", "equilibrium"])
def test_failed_write_names_the_artifact(tmp_path, capsys, subcommand):
    """The open succeeds but the write fails (/dev/full: no space left on
    device): exit 2 and one error line naming the artifact.  The evolve
    trajectory of 4,001 rows fails in its first row block, the other
    artifacts when their buffer is flushed on close.  Each command writes
    `out` first, so no other file is made."""
    cfgp = write_config(tmp_path)
    cfgp.write_text(cfgp.read_text() + "\n[evolution]\ndt = 0.002\nt = 8.0\n")
    assert cli.run(str(cfgp), subcommand, out="/dev/full") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'/dev/full'" in err and len(err.splitlines()) == 1


def test_main_entry(tmp_path):
    cfgp = write_config(tmp_path, medium=VE_BLOCK)
    code = cli.main(["thresholds", "--config", str(cfgp), "--out", str(tmp_path / "x.json")])
    assert code == 0


def test_validation_evolve_horizon(tmp_path, monkeypatch, capsys):
    """The fit window [T/2, T] must hold 10 samples, and the run at most
    MAX_STEPS steps: an explicit dt/T pair is checked before the mode is
    assembled, with one error line, and the integrator checks the pair once
    dt or T comes from Lambda."""
    def no_assembly(*args, **kwargs):
        raise AssertionError("the mode was assembled before the horizon check")

    # 8 steps; exactly 10 steps, whose window holds 6 samples; 19 steps, where
    # dt*19 > 1.9 leaves 9; and 1e12 steps, whose records would take 7.28 TiB
    for horizon, fragment in (("dt = 0.5\nt = 4.0", "at least 10 samples"),
                              ("dt = 0.01\nt = 0.1", "got 6"),
                              ("dt = 0.1\nt = 1.9", "got 9"),
                              ("dt = 1e-12\nt = 1.0", "more than 10,000,000 steps")):
        cfgp = write_config(tmp_path)
        cfgp.write_text(cfgp.read_text() + f"\n[evolution]\n{horizon}\n")
        with monkeypatch.context() as patch:
            patch.setattr(cli.assembly, "assemble", no_assembly)
            assert cli.run(str(cfgp), "evolve", out=str(tmp_path / "traj.csv")) == 2, horizon
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and fragment in lines[0], lines
        assert not (tmp_path / "traj.csv").exists()
    # T defaults to 10/Lambda, whose window holds fewer than 10 samples of this dt
    # (and dt*Lambda < 2)
    cfgp = write_config(tmp_path)
    cfgp.write_text(cfgp.read_text() + "\n[evolution]\ndt = 6.0\n")
    assert cli.run(str(cfgp), "evolve", out=str(tmp_path / "traj.csv")) == 2
    assert "at least 10 samples" in capsys.readouterr().err


@pytest.mark.xfail(strict=True, reason="ROADMAP items 1 and 10: P1 locking on the thin "
                   "layer leaves alpha(0) = -2.9e-59, inside its rounding floor, while xi "
                   "reads inf")
def test_thin_layer_keeps_the_dichotomy(tmp_path):
    """With no field, a heavy upper layer of height 0.001 over the light lower
    layer is RT-unstable on mode (1,0): xi > 1 must come with alpha(0) > 1e-8,
    far above this mesh's rounding and far below alpha(0) = 2.8e-3 at height
    0.01."""
    cfg = cli.parse_config(str(write_config(tmp_path, **{"h_plus = 1.0": "h_plus = 0.001"})))
    mm = cli._single_mode(cfg)
    xi, _ = cli.spectral.xi_per_mode(mm)
    a0, _ = cli.spectral.alpha(0.0, mm)
    if xi > 1.0:
        assert a0 > 1e-8, (xi, a0)


def test_solver_value_error_exit_code(tmp_path, monkeypatch, capsys):
    """A ValueError raised while solving is a solver error (3), not a config error (2)."""
    def broken(*args, **kwargs):
        raise ValueError("broken solver")

    monkeypatch.setattr(cli.spectral, "xi_per_mode", broken)
    assert cli.run(str(write_config(tmp_path)), "xi", out=str(tmp_path / "xi.json")) == 3
    assert "broken solver" in capsys.readouterr().err


def test_singular_denominator_exit_code(tmp_path, capsys):
    """kappa = 0 in one layer: xi exits 3 naming the singular denominator, and
    a scan lists every mode but (0,0) as failed."""
    cfgp = write_config(tmp_path, medium="[viscoelastic]\nkappa_plus = 0.0\nkappa_minus = 0.3\n")
    assert cli.run(str(cfgp), "xi", out=str(tmp_path / "xi.json")) == 3
    assert "singular denominator" in capsys.readouterr().err
    out = tmp_path / "scan.csv"
    assert cli.run(str(cfgp), "scan", out=str(out)) == 3
    summary = json.loads((tmp_path / "scan.csv.summary.json").read_text())["summary"]
    assert sorted(summary["errors"]) == ["0,1", "1,-1", "1,0", "1,1"]
    assert len(out.read_text().splitlines()) == 1 + 1


@pytest.mark.parametrize("module", ["scipy.integrate", "scipy.sparse", "scipy.linalg"])
def test_import_leaves_out(module):
    """Every command imports the CLI; the closed-form layers need no ODE solver,
    and band.py loads scipy's compiled LAPACK, BLAS and sparse-product modules
    by file, without running scipy/linalg/__init__.py or
    scipy/sparse/__init__.py.  The import adds none of these modules to what
    scipy.linalg loads itself (nothing, in current scipy releases), or, for
    scipy.linalg, to what the bare scipy package loads."""
    first = "scipy" if module == "scipy.linalg" else "scipy.linalg"
    code = (f"import sys, {first}; before = {module!r} in sys.modules; "
            f"import rtspectra.cli; print(before, {module!r} in sys.modules)")
    by_first, by_cli = run_python(code).split()
    assert by_cli == by_first


def test_no_command_loads_scipy_sparse_or_linalg(tmp_path):
    """No command, evolve included, adds scipy.sparse, scipy.linalg or scipy's
    array-API layer to what a bare ``import scipy`` loads."""
    cfgp = write_config(tmp_path, **{"m3 = 0.0": "m3 = 0.02"})
    cfgp.write_text(cfgp.read_text() + "\n[evolution]\ndt = 0.05\nt = 1.0\nseed = 1\n")
    code = f"""
import sys, scipy
modules = ('scipy.sparse', 'scipy.linalg', 'scipy._lib._array_api')
by_scipy = [m for m in modules if m in sys.modules]
from rtspectra import cli
for command in ("scan", "xi", "growth", "witness", "thresholds", "equilibrium", "evolve"):
    assert cli.run({str(cfgp)!r}, command, out={str(tmp_path / "out")!r} + command) == 0
print([m for m in modules if m in sys.modules and m not in by_scipy])
"""
    assert run_python(code).splitlines()[-1] == "[]"


def test_no_command_loads_numpy_random(tmp_path):
    """No command, evolve included, adds numpy.random, or the secrets and
    _hashlib modules its bit generators load, to what a bare ``import
    numpy`` loads (numpy 1.24 loads numpy.random itself): the solvers'
    start vector and evolve's initial data are splitmix64 draws in uint64
    arithmetic.  ``import rtspectra.cli`` does not run scipy/__init__.py."""
    cfgp = write_config(tmp_path, **{"m3 = 0.0": "m3 = 0.02"})
    cfgp.write_text(cfgp.read_text() + "\n[evolution]\ndt = 0.05\nt = 1.0\nseed = 1\n")
    code = f"""
import sys, numpy
modules = ('numpy.random', 'secrets', '_hashlib')
by_numpy = [m for m in modules if m in sys.modules]
from rtspectra import cli
scipy_by_cli = 'scipy' in sys.modules
for command in ("scan", "xi", "growth", "witness", "thresholds", "equilibrium", "evolve"):
    assert cli.run({str(cfgp)!r}, command, out={str(tmp_path / "out")!r} + command) == 0
print(scipy_by_cli, [m for m in modules if m in sys.modules and m not in by_numpy])
"""
    assert run_python(code).splitlines()[-1] == "False []"


@pytest.mark.parametrize("seed, status", [(2 ** 64, 2), (2 ** 64 - 1, 0)])
def test_evolve_seed_range(tmp_path, capsys, seed, status):
    """A seed is a uint64 state: 2**64 is refused with the range (exit 2, no
    traceback) before any solve, and 2**64 - 1 runs."""
    cfgp = write_config(tmp_path, **{"m3 = 0.0": "m3 = 0.02"})
    cfgp.write_text(cfgp.read_text() + f"\n[evolution]\ndt = 0.05\nt = 1.0\nseed = {seed}\n")
    assert cli.run(str(cfgp), "evolve", out=str(tmp_path / "traj.csv")) == status
    err = capsys.readouterr().err
    if status:
        assert err == f"error: seed must be nonnegative and below 2**64, in [0, 2**64); got {seed}\n"
    else:
        assert err == ""
        assert json.loads((tmp_path / "traj.csv.rate.json").read_text())["seed"] == seed
