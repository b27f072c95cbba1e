"""Command-line front end: config parsing, scans, reports.

A config is a flat INI file that says what to compute; section names and
keys ignore case.  The command line names the artifact: ``--out`` is
required, and a scan whose ``--out`` ends in ``.json`` writes one JSON
document instead of a CSV and its summary.  All outputs are deterministic:
fixed float formatting, sorted keys, no timestamps.  Exit codes: 0
success, 2 InputError (the configuration or a value in it is not
admissible) or OSError (an artifact path that cannot be written), 3
SolverError or a bare ValueError raised while solving.  Each value is
checked by the type or function that owns it; parse_config checks only
what no type owns, and refuses any section or key KEYS does not list.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import math
import sys
from typing import Dict, Optional

from . import assembly, criteria, evolution, spectral
from .equilibrium import Geometry, PressureLaw, build_profile
from .errors import InputError, RTSpectraError, open_artifact
from .modereduce import DEFAULT_QUADRATURE_ORDER, FormCoefficients, FourierMode
from .params import MHD, VISCOELASTIC, PhysicalParams

SCHEMA_VERSION = 1
SCAN_COLUMNS = ("k1", "k2", "xi1", "xi2", "xi_value", "alpha0", "lambda", "residual")
REQUIRED = object()

# section -> key -> (type, default or REQUIRED), names lower-cased as in the
# config.  parse_config refuses any section or key not listed here.
KEYS = {
    "geometry": {"h_minus": (float, REQUIRED), "h_plus": (float, REQUIRED),
                 "l1": (float, 1.0), "l2": (float, 1.0)},
    "equilibrium": {"g": (float, REQUIRED), "rho_plus_interface": (float, REQUIRED),
                    "law_plus": (str, "linear"), "law_minus": (str, "linear"),
                    # required by the law that reads them, see _law
                    "c2_plus": (float, None), "c2_minus": (float, None),
                    "k_plus": (float, None), "k_minus": (float, None),
                    "gamma_plus": (float, None), "gamma_minus": (float, None)},
    "physics": {"mu_plus": (float, 1.0), "mu_minus": (float, 1.0),
                "bulk_plus": (float, 0.0), "bulk_minus": (float, 0.0)},
    MHD: {"lambda": (float, 1.0), "m1": (float, 0.0), "m2": (float, 0.0), "m3": (float, 0.0)},
    VISCOELASTIC: {"kappa_plus": (float, REQUIRED), "kappa_minus": (float, REQUIRED)},
    "numerics": {"n_per_layer": (int, assembly.DEFAULT_N_PER_LAYER),
                 "grading": (float, None),        # None: the default mesh family
                 "quadrature_order": (int, DEFAULT_QUADRATURE_ORDER),
                 "k_max": (int, 4), "fixed_point_tol": (float, 1e-8),
                 "k1": (int, 1), "k2": (int, 0)},
    "evolution": {"dt": (float, None), "t": (float, None), "seed": (int, 0)},
}


def _fmt(x: float) -> str:
    return format(x, ".17g")


@dataclasses.dataclass
class RunConfig:
    """Validated run configuration; parse_config fills every field from KEYS."""

    geometry: Geometry
    law_plus: PressureLaw
    law_minus: PressureLaw
    g: float
    rho_plus_interface: float
    params: PhysicalParams
    n_per_layer: int
    grading: Optional[float]
    quadrature_order: int
    k_max: int
    fixed_point_tol: float
    k1: int
    k2: int
    dt: Optional[float]
    T: Optional[float]
    seed: int


def _read_sections(path: str) -> Dict[str, Dict[str, str]]:
    """Sections of an INI config, section names and keys lower-cased."""
    # "key = value  ; note" drops the note; a key given twice, in any case, raises
    # DuplicateOptionError; no header names the default section "", so [DEFAULT] is unknown
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",), default_section="")
    sections = {}
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
        for name in parser.sections():
            if name.lower() in sections:
                raise InputError(f"duplicate section [{name.lower()}] (section names ignore case)")
            sections[name.lower()] = dict(parser.items(name))
    except OSError as exc:
        raise InputError(f"cannot read config file {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"config is not UTF-8 text: {exc}") from exc
    except configparser.Error as exc:         # one error line, as for every InputError
        message = str(exc).replace("\n", " ")
        raise InputError(f"config is not valid INI: {message}") from exc
    return sections


def _section(sections: Dict[str, Dict[str, str]], name: str) -> Dict:
    """Every key of section `name` in KEYS, cast, with its default when absent."""
    raw = sections.get(name, {})
    for key in raw:
        if key not in KEYS[name]:
            raise InputError(f"unknown key {key!r} in section [{name}]")
    values = {}
    for key, (cast, default) in KEYS[name].items():
        if key not in raw:
            if default is REQUIRED:
                raise InputError(f"missing key {key!r} in section [{name}]")
            values[key] = default
            continue
        try:
            values[key] = cast(raw[key])
        except ValueError as exc:
            raise InputError(f"key {key!r} in [{name}] is not a valid {cast.__name__}: "
                             f"{raw[key]!r}") from exc
    return values


def _law(eq: Dict, side: str) -> PressureLaw:
    """The pressure law of one layer; the keys its kind reads are required."""
    def given(key):
        if eq[key] is None:
            raise InputError(f"missing key {key!r} in section [equilibrium]")
        return eq[key]

    kind = eq[f"law_{side}"]
    if kind == "linear":
        return PressureLaw.linear(given(f"c2_{side}"))
    if kind == "polytropic":
        return PressureLaw.polytropic(given(f"k_{side}"), given(f"gamma_{side}"))
    raise InputError(f"law_{side} must be 'linear' or 'polytropic', got {kind!r}")


def parse_config(path: str) -> RunConfig:
    """Parse and validate a config file into a RunConfig."""
    sections = _read_sections(path)
    for name in sections:
        if name not in KEYS:
            raise InputError(f"unknown section [{name}]")
    geo, eq, physics, num, ev = (_section(sections, name) for name in (
        "geometry", "equilibrium", "physics", "numerics", "evolution"))
    if (MHD in sections) == (VISCOELASTIC in sections):
        raise InputError("exactly one of [mhd] or [viscoelastic] must be present")
    if MHD in sections:
        m = _section(sections, MHD)
        params = PhysicalParams(**physics, lam=m["lambda"], M=(m["m1"], m["m2"], m["m3"]),
                                medium=MHD)
    else:
        params = PhysicalParams(**physics, **_section(sections, VISCOELASTIC),
                                medium=VISCOELASTIC)
    # Checked here because an all-stable scan never calls growth_rate_detailed,
    # the only solver that reads it.  dt and T are checked by evolution.check_horizon.
    if not 0.0 < num["fixed_point_tol"] < math.inf:     # also refuses NaN
        raise InputError(f"fixed_point_tol must be positive and finite, "
                         f"got {num['fixed_point_tol']}")
    return RunConfig(
        geometry=Geometry(h_minus=geo["h_minus"], h_plus=geo["h_plus"],
                          L1=geo["l1"], L2=geo["l2"]),
        law_plus=_law(eq, "plus"), law_minus=_law(eq, "minus"), g=eq["g"],
        rho_plus_interface=eq["rho_plus_interface"], params=params,
        n_per_layer=num["n_per_layer"], grading=num["grading"],
        quadrature_order=num["quadrature_order"], k_max=num["k_max"],
        fixed_point_tol=num["fixed_point_tol"], k1=num["k1"], k2=num["k2"],
        dt=ev["dt"], T=ev["t"], seed=ev["seed"])


# -- report helpers -----------------------------------------------------------


def _json_value(x):
    """JSON-safe value: inf as the string "inf", NaN (no value) as null."""
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return None
    if isinstance(x, float) and math.isinf(x):
        return "inf"
    return x


def _write_json(path: str, payload: dict) -> None:
    with open_artifact(path) as fh:
        json.dump({"schema_version": SCHEMA_VERSION, **payload}, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _scan_records(verdict: spectral.StabilityVerdict):
    """One record per solved mode, keyed by SCAN_COLUMNS in order."""
    for v in sorted(verdict.verdicts, key=lambda v: (v.mode.k1, v.mode.k2)):
        yield dict(zip(SCAN_COLUMNS, (v.mode.k1, v.mode.k2, v.mode.xi1, v.mode.xi2,
                                      v.xi_value, v.alpha0, v.lambda_value, v.residual)))


def _csv_cell(x) -> str:
    """A scan CSV cell: an empty one for no value, a float as _fmt, an index as is."""
    return "" if x is None else _fmt(x) if isinstance(x, float) else str(x)


def _summary_dict(verdict: spectral.StabilityVerdict) -> dict:
    return {
        "global_xi": _json_value(verdict.global_xi),
        "global_lambda": _json_value(verdict.global_lambda),
        "truncation_converged": verdict.truncation_converged,
        "errors": {f"{k[0]},{k[1]}": msg for k, msg in sorted(verdict.errors.items())},
    }


def _summary_line(verdict: spectral.StabilityVerdict) -> str:
    xi, lam = verdict.global_xi, verdict.global_lambda
    return "global_xi=%s global_lambda=%s truncation_converged=%s" % (
        "none" if math.isnan(xi) else _fmt(xi),
        "none" if lam is None else _fmt(lam),
        str(verdict.truncation_converged).lower(),
    )


# -- subcommand implementations -----------------------------------------------


def _profile(cfg: RunConfig):
    return build_profile(cfg.geometry, cfg.law_plus, cfg.law_minus, cfg.g,
                         cfg.rho_plus_interface)


def _coeffs(cfg: RunConfig) -> FormCoefficients:
    """The discretization of a run: profile and medium on the configured mesh."""
    mesh = assembly.build_mesh(cfg.geometry, cfg.n_per_layer, cfg.grading)
    return FormCoefficients(_profile(cfg), cfg.params, mesh.nodes, cfg.quadrature_order)


def _single_mode(cfg: RunConfig):
    """The matrices of mode (k1, k2)."""
    return assembly.assemble(_coeffs(cfg), FourierMode.from_indices(cfg.k1, cfg.k2, cfg.geometry))


#: elements per layer of the equilibrium CSV's default-family mesh: 1,024 heights per layer
EQUILIBRIUM_TABLE_ELEMENTS = 1023


def cmd_equilibrium(cfg: RunConfig, out: str) -> int:
    profile = _profile(cfg)
    profile.to_csv(out, assembly.build_mesh(cfg.geometry, EQUILIBRIUM_TABLE_ELEMENTS).nodes)
    jump = profile.density_jump
    print(f"rho_jump={_fmt(jump)} rt_condition={str(jump > 0.0).lower()} wrote {out}")
    return 0


def cmd_xi(cfg: RunConfig, out: str) -> int:
    value, _ = spectral.xi_per_mode(_single_mode(cfg))
    _write_json(out, {
        "k1": cfg.k1, "k2": cfg.k2,
        "xi_value": _json_value(value),
        "medium": cfg.params.medium,
    })
    print(f"xi_value={_fmt(value)}")
    return 0


def cmd_growth(cfg: RunConfig, out: str) -> int:
    mm = _single_mode(cfg)
    a0, v0 = spectral.alpha(0.0, mm)
    lam, _, res = spectral.growth_rate_detailed(mm, cfg.fixed_point_tol, alpha0=(a0, v0))
    _write_json(out, {
        "k1": cfg.k1, "k2": cfg.k2,
        "alpha0": a0,
        "lambda": _json_value(lam),
        "residual": _json_value(res),
        "medium": cfg.params.medium,
    })
    print("lambda=%s" % ("none" if lam is None else _fmt(lam)))
    return 0


def cmd_scan(cfg: RunConfig, out: str) -> int:
    verdict = spectral.global_scan(_coeffs(cfg), cfg.k_max, cfg.fixed_point_tol)
    if out.endswith(".json"):
        _write_json(out, {
            "records": [
                {k: _json_value(v) for k, v in rec.items()} for rec in _scan_records(verdict)
            ],
            "summary": _summary_dict(verdict),
        })
    else:
        lines = [",".join(SCAN_COLUMNS)]
        for rec in _scan_records(verdict):
            lines.append(",".join(_csv_cell(x) for x in rec.values()))
        with open_artifact(out) as fh:
            fh.write("\n".join(lines) + "\n")
        _write_json(out + ".summary.json", {"summary": _summary_dict(verdict)})
    print(_summary_line(verdict))
    if verdict.errors:
        # a failed mode may hide the mode that decides the global verdict
        for (k1, k2), msg in sorted(verdict.errors.items()):
            print(f"failed mode ({k1},{k2}): {msg}", file=sys.stderr)
        return 3
    return 0


def cmd_witness(cfg: RunConfig, out: str) -> int:
    profile = _profile(cfg)
    if cfg.params.medium != MHD:
        raise InputError("witness reports require the [mhd] medium")
    M = cfg.params.M
    if M[0] != 0.0 and M[1] == 0.0 and M[2] == 0.0:
        mode = FourierMode.from_indices(cfg.k1, cfg.k2, cfg.geometry)
        w = criteria.horizontal_field_witness(profile, cfg.params, mode)
        kind = "horizontal_field"
    else:
        eps = 0.25 * min(cfg.geometry.h_plus, -cfg.geometry.h_minus)
        w = criteria.small_field_witness(profile, cfg.params, eps)
        kind = "small_field"
    positive = bool(w.energy_value > 0.0)
    _write_json(out, {
        "kind": kind,
        "k1": w.mode.k1, "k2": w.mode.k2,
        "energy_value": w.energy_value,
        "closed_form_value": w.closed_form_value,
        "positive": positive,
    })
    print(f"witness_kind={kind} energy_value={_fmt(w.energy_value)} "
          f"closed_form={_fmt(w.closed_form_value)} positive={str(positive).lower()} "
          f"agreement={_fmt(w.diagnostics['agreement'])} "
          f"quadrature_points={w.diagnostics['quadrature_points']}")
    return 0


def cmd_thresholds(cfg: RunConfig, out: str) -> int:
    profile = _profile(cfg)
    if cfg.params.medium == MHD:
        r = criteria.vertical_field_threshold(profile, cfg.params.lam, cfg.params.M[2])
        label, actual = "vertical_field_threshold", "m3_squared"
    else:
        r = criteria.viscoelastic_threshold(profile, cfg.params.kappa_plus,
                                            cfg.params.kappa_minus)
        label, actual = "kappa_threshold", "kappa_min"
    _write_json(out, {"reports": [dataclasses.asdict(r)]})
    print(f"{label}={_fmt(r.threshold_value)} {actual}={_fmt(r.actual_value)} "
          f"sufficient_stability={str(r.sufficient_stability).lower()}")
    return 0


def cmd_evolve(cfg: RunConfig, out: str) -> int:
    evolution.check_seed(cfg.seed)
    if cfg.dt is not None and cfg.T is not None:
        evolution.check_horizon(cfg.dt, cfg.T)     # before the solves; else once Lambda is known
    mm = _single_mode(cfg)
    lam, _, _ = spectral.growth_rate_detailed(mm, cfg.fixed_point_tol)
    dt = cfg.dt if cfg.dt is not None else (1e-3 / lam if lam else 1e-2)
    T = cfg.T if cfg.T is not None else (10.0 / lam if lam else 20.0)
    eta0, u0 = evolution.random_initial_data(mm, cfg.seed)
    result = evolution.integrate_linearized(mm, eta0, u0, dt, T)
    evolution.export_trajectory(result, out)
    _write_json(out + ".rate.json", {
        "lambda": _json_value(lam),
        "fitted_rate": result.fitted_rate,
        "relative_gap": (None if not lam else abs(result.fitted_rate - lam) / lam),
        "energy_balance_residual": result.energy_balance_residual,
        "dt": dt, "T": T, "seed": cfg.seed,
    })
    print("fitted_rate=%s lambda=%s" % (
        _fmt(result.fitted_rate), "none" if lam is None else _fmt(lam)))
    return 0


COMMANDS = {
    "equilibrium": cmd_equilibrium,
    "xi": cmd_xi,
    "growth": cmd_growth,
    "scan": cmd_scan,
    "witness": cmd_witness,
    "thresholds": cmd_thresholds,
    "evolve": cmd_evolve,
}


def run(config_path: str, subcommand: str, out: str, threads: Optional[int] = None) -> int:
    """Execute one subcommand, writing its artifact to `out`; returns the exit status.

    ``threads`` is accepted for compatibility and ignored.
    """
    try:
        if subcommand not in COMMANDS:
            raise InputError(f"unknown subcommand {subcommand!r}")
        return COMMANDS[subcommand](parse_config(config_path), out)
    except (InputError, OSError) as exc:      # OSError: an artifact that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RTSpectraError, ValueError) as exc:
        print(f"solver error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rt-spectra",
        description="Linear stability analysis of stratified compressible MHD "
                    "and viscoelastic Rayleigh-Taylor configurations",
    )
    parser.add_argument("subcommand", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to the run configuration")
    parser.add_argument("--out", required=True,
                        help="artifact path; a scan to a .json path writes JSON, else CSV")
    parser.add_argument("--threads", type=int, default=None,
                        help="accepted and ignored: modes are solved one after another")
    args = parser.parse_args(argv)
    return run(args.config, args.subcommand, args.out, args.threads)


if __name__ == "__main__":
    raise SystemExit(main())
