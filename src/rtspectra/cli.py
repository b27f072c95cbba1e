"""Command-line front end: config parsing, scans, reports.

Configs are flat INI sections (JSON accepted as an alternative encoding of
the same sections); section names and keys ignore case in both encodings.
All outputs are deterministic: fixed float formatting, sorted keys, no
timestamps.  Exit codes: 0 success, 2 configuration or validation error,
3 solver error (an RTSpectraError or a ValueError raised while solving).
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
from dataclasses import dataclass
from typing import Dict, Optional

from . import assembly, criteria, evolution, spectral
from .equilibrium import Geometry, PressureLaw, build_profile, check_rt_condition
from .errors import (
    ConfigError,
    InvalidGradingError,
    RTSpectraError,
    ValidationError,
)
from .modereduce import FourierMode
from .params import MHD, VISCOELASTIC, PhysicalParams

SCHEMA_VERSION = 1
SCAN_COLUMNS = ("k1", "k2", "xi1", "xi2", "xi_value", "alpha0", "lambda", "residual")
SUBCOMMANDS = ("equilibrium", "xi", "growth", "scan", "witness", "thresholds", "evolve")


def _fmt(x: float) -> str:
    return format(x, ".17g")


@dataclass
class RunConfig:
    """Validated run configuration."""

    geometry: Geometry
    law_plus: PressureLaw
    law_minus: PressureLaw
    g: float
    rho_plus_interface: float
    params: PhysicalParams
    n_per_layer: int = assembly.DEFAULT_N_PER_LAYER
    grading: Optional[float] = None       # None: the default mesh family
    quadrature_order: int = 6
    k_max: int = 4
    fixed_point_tol: float = 1e-8
    k1: int = 1
    k2: int = 0
    dt: Optional[float] = None
    T: Optional[float] = None
    seed: int = 0
    out_path: str = "report"
    out_format: str = "csv"


def _lower_keys(pairs, where: str) -> Dict:
    """The pairs as a dict with lower-cased keys; ConfigError when two keys differ only in case."""
    out = {}
    for key, value in pairs:
        key = str(key).lower()
        if key in out:
            raise ConfigError(f"duplicate key {key!r} in {where} (keys ignore case)")
        out[key] = value
    return out


def _read_sections(path: str) -> Dict[str, Dict[str, str]]:
    """Sections of an INI or JSON config, section names and keys lower-cased."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    stripped = text.lstrip()
    if path.endswith(".json") or stripped.startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not (isinstance(data, dict) and all(isinstance(v, dict) for v in data.values())):
            raise ConfigError("JSON config must be an object of sections")
        sections = [(name, items.items()) for name, items in data.items()]
    else:
        # lower-cases keys, not section names; "key = value  ; note" drops the note
        parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
        try:
            parser.read_string(text)
        except configparser.Error as exc:
            raise ConfigError(f"config is not valid INI: {exc}") from exc
        sections = [(name, parser.items(name)) for name in parser.sections()]
    return _lower_keys(
        ((name, _lower_keys(((k, str(v)) for k, v in items), f"section [{name}]"))
         for name, items in sections), "the config")


def _get(section: Dict[str, str], sec_name: str, key: str, cast, default=None,
         required: bool = False):
    if key not in section:
        if required:
            raise ValidationError(f"missing key {key!r} in section [{sec_name}]")
        return default
    raw = section[key]
    try:
        if cast is int:
            return int(raw)
        if cast is float:
            return float(raw)
        return raw
    except ValueError as exc:
        raise ValidationError(f"key {key!r} in [{sec_name}] is not a valid {cast.__name__}: {raw!r}") from exc


def _positive(name: str, value: float) -> float:
    if not value > 0:
        raise ValidationError(f"{name} must be positive, got {value}")
    return value


def _nonnegative(name: str, value: float) -> float:
    if not value >= 0:     # also refuses NaN
        raise ValidationError(f"{name} must be nonnegative, got {value}")
    return value


def _law_from(section: Dict[str, str], side: str) -> PressureLaw:
    kind = section.get(f"law_{side}", "linear")
    if kind == "linear":
        c2 = _get(section, "equilibrium", f"c2_{side}", float, required=True)
        return PressureLaw.linear(_positive(f"c2_{side}", c2))
    if kind == "polytropic":
        K = _get(section, "equilibrium", f"k_{side}", float, required=True)
        gamma = _get(section, "equilibrium", f"gamma_{side}", float, required=True)
        return PressureLaw.polytropic(_positive(f"k_{side}", K), gamma)
    raise ValidationError(f"law_{side} must be 'linear' or 'polytropic', got {kind!r}")


def _check_horizon(dt: float, T: float) -> None:
    if not T >= 10 * dt:
        raise ValidationError(f"T={T:.6g} must cover at least 10 steps of dt={dt:.6g}")


def parse_config(path: str) -> RunConfig:
    """Parse and validate a config file into a RunConfig."""
    sections = _read_sections(path)

    geo_s = sections.get("geometry", {})
    geometry_kwargs = {
        "h_minus": _get(geo_s, "geometry", "h_minus", float, required=True),
        "h_plus": _get(geo_s, "geometry", "h_plus", float, required=True),
        "L1": _get(geo_s, "geometry", "l1", float, 1.0),
        "L2": _get(geo_s, "geometry", "l2", float, 1.0),
    }
    try:
        geometry = Geometry(**geometry_kwargs)
    except ValueError as exc:
        raise ValidationError(f"geometry: {exc}") from exc

    eq_s = sections.get("equilibrium", {})
    g = _nonnegative("g", _get(eq_s, "equilibrium", "g", float, required=True))
    rho_anchor = _positive(
        "rho_plus_interface",
        _get(eq_s, "equilibrium", "rho_plus_interface", float, required=True),
    )
    law_plus = _law_from(eq_s, "plus")
    law_minus = _law_from(eq_s, "minus")

    ph_s = sections.get("physics", {})
    mu_plus = _positive("mu_plus", _get(ph_s, "physics", "mu_plus", float, 1.0))
    mu_minus = _positive("mu_minus", _get(ph_s, "physics", "mu_minus", float, 1.0))
    bulk_plus = _nonnegative("bulk_plus", _get(ph_s, "physics", "bulk_plus", float, 0.0))
    bulk_minus = _nonnegative("bulk_minus", _get(ph_s, "physics", "bulk_minus", float, 0.0))

    has_mhd = "mhd" in sections
    has_ve = "viscoelastic" in sections
    if has_mhd == has_ve:
        raise ValidationError("exactly one of [mhd] or [viscoelastic] must be present")
    if has_mhd:
        m_s = sections["mhd"]
        lam = _positive("lambda", _get(m_s, "mhd", "lambda", float, 1.0))
        M = (
            _get(m_s, "mhd", "m1", float, 0.0),
            _get(m_s, "mhd", "m2", float, 0.0),
            _get(m_s, "mhd", "m3", float, 0.0),
        )
        params = PhysicalParams(mu_plus=mu_plus, mu_minus=mu_minus, bulk_plus=bulk_plus,
                                bulk_minus=bulk_minus, lam=lam, M=M, medium=MHD)
    else:
        v_s = sections["viscoelastic"]
        kp = _nonnegative("kappa_plus", _get(v_s, "viscoelastic", "kappa_plus", float, required=True))
        km = _nonnegative("kappa_minus", _get(v_s, "viscoelastic", "kappa_minus", float, required=True))
        params = PhysicalParams(mu_plus=mu_plus, mu_minus=mu_minus, bulk_plus=bulk_plus,
                                bulk_minus=bulk_minus, kappa_plus=kp, kappa_minus=km,
                                medium=VISCOELASTIC)

    num_s = sections.get("numerics", {})
    cfg = RunConfig(
        geometry=geometry, law_plus=law_plus, law_minus=law_minus, g=g,
        rho_plus_interface=rho_anchor, params=params,
        n_per_layer=_get(num_s, "numerics", "n_per_layer", int, assembly.DEFAULT_N_PER_LAYER),
        grading=_get(num_s, "numerics", "grading", float, None),
        quadrature_order=_get(num_s, "numerics", "quadrature_order", int, 6),
        k_max=_get(num_s, "numerics", "k_max", int, 4),
        fixed_point_tol=_positive("fixed_point_tol",
                                  _get(num_s, "numerics", "fixed_point_tol", float, 1e-8)),
        k1=_get(num_s, "numerics", "k1", int, 1),
        k2=_get(num_s, "numerics", "k2", int, 0),
    )
    if cfg.n_per_layer < 4:
        raise ValidationError(f"n_per_layer must be at least 4, got {cfg.n_per_layer}")
    if cfg.k_max < 1:
        raise ValidationError(f"k_max must be at least 1, got {cfg.k_max}")

    ev_s = sections.get("evolution", {})
    cfg.dt = _get(ev_s, "evolution", "dt", float, None)
    cfg.T = _get(ev_s, "evolution", "t", float, None)
    cfg.seed = _get(ev_s, "evolution", "seed", int, 0)
    if cfg.dt is not None:
        _positive("dt", cfg.dt)
    if cfg.T is not None:
        _positive("T", cfg.T)
    if cfg.dt is not None and cfg.T is not None:
        _check_horizon(cfg.dt, cfg.T)

    out_s = sections.get("output", {})
    cfg.out_path = _get(out_s, "output", "path", str, "report")
    cfg.out_format = _get(out_s, "output", "format", str, "csv")
    if cfg.out_format not in ("csv", "json"):
        raise ValidationError(f"format must be 'csv' or 'json', got {cfg.out_format!r}")
    return cfg


# -- report helpers -----------------------------------------------------------


def _xi_str(x: float) -> str:
    return "inf" if math.isinf(x) else _fmt(x)


def _json_value(x):
    """JSON-safe value: inf as the string "inf", NaN (no value) as null."""
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return None
    if isinstance(x, float) and math.isinf(x):
        return "inf"
    return x


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _scan_records(verdict: spectral.StabilityVerdict):
    for v in sorted(verdict.verdicts, key=lambda v: (v.mode.k1, v.mode.k2)):
        yield {
            "k1": v.mode.k1,
            "k2": v.mode.k2,
            "xi1": v.mode.xi1,
            "xi2": v.mode.xi2,
            "xi_value": v.xi_value,
            "alpha0": v.alpha0,
            "lambda": v.lambda_value,
            "residual": v.residual,
        }


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
        "none" if math.isnan(xi) else _xi_str(xi),
        "none" if lam is None else _fmt(lam),
        str(verdict.truncation_converged).lower(),
    )


# -- subcommand implementations -----------------------------------------------


def _profile(cfg: RunConfig):
    return build_profile(cfg.geometry, cfg.law_plus, cfg.law_minus, cfg.g,
                         cfg.rho_plus_interface)


def _build_state(cfg: RunConfig):
    return _profile(cfg), assembly.build_mesh(cfg.geometry, cfg.n_per_layer, cfg.grading)


def _single_mode(cfg: RunConfig, profile, mesh):
    mode = FourierMode.from_indices(cfg.k1, cfg.k2, cfg.geometry)
    return assembly.assemble(profile, cfg.params, mode, mesh, cfg.quadrature_order)


def cmd_equilibrium(cfg: RunConfig, out: str) -> int:
    profile = _profile(cfg)
    profile.to_csv(out)
    stable, jump = check_rt_condition(profile)
    print(f"rho_jump={_fmt(jump)} rt_condition={str(stable).lower()} wrote {out}")
    return 0


def cmd_xi(cfg: RunConfig, out: str) -> int:
    profile, mesh = _build_state(cfg)
    mm = _single_mode(cfg, profile, mesh)
    value, _ = spectral.xi_per_mode(mm)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "k1": cfg.k1, "k2": cfg.k2,
        "xi_value": _json_value(value),
        "medium": cfg.params.medium,
    }
    _write_json(out, payload)
    print(f"xi_value={_xi_str(value)}")
    return 0


def cmd_growth(cfg: RunConfig, out: str) -> int:
    profile, mesh = _build_state(cfg)
    mm = _single_mode(cfg, profile, mesh)
    a0, v0 = spectral.alpha(0.0, mm)
    lam, _, res = spectral.growth_rate_detailed(mm, cfg.fixed_point_tol, alpha0=(a0, v0))
    payload = {
        "schema_version": SCHEMA_VERSION,
        "k1": cfg.k1, "k2": cfg.k2,
        "alpha0": a0,
        "lambda": _json_value(lam),
        "residual": _json_value(res),
        "medium": cfg.params.medium,
    }
    _write_json(out, payload)
    print("lambda=%s" % ("none" if lam is None else _fmt(lam)))
    return 0


def cmd_scan(cfg: RunConfig, out: str) -> int:
    profile, mesh = _build_state(cfg)
    verdict = spectral.global_scan(profile, cfg.params, mesh, cfg.k_max,
                                   cfg.fixed_point_tol, cfg.quadrature_order)
    if cfg.out_format == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "records": [
                {k: _json_value(v) for k, v in rec.items()} for rec in _scan_records(verdict)
            ],
            "summary": _summary_dict(verdict),
        }
        _write_json(out, payload)
    else:
        lines = [",".join(SCAN_COLUMNS)]
        for rec in _scan_records(verdict):
            lines.append(",".join((
                str(rec["k1"]), str(rec["k2"]), _fmt(rec["xi1"]), _fmt(rec["xi2"]),
                _xi_str(rec["xi_value"]), _fmt(rec["alpha0"]),
                "" if rec["lambda"] is None else _fmt(rec["lambda"]),
                "" if rec["residual"] is None else _fmt(rec["residual"]),
            )))
        with open(out, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        _write_json(out + ".summary.json",
                    {"schema_version": SCHEMA_VERSION, "summary": _summary_dict(verdict)})
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
        raise ValidationError("witness reports require the [mhd] medium")
    M = cfg.params.M
    if M[0] != 0.0 and M[1] == 0.0 and M[2] == 0.0:
        mode = FourierMode.from_indices(cfg.k1, cfg.k2, cfg.geometry)
        w = criteria.horizontal_field_witness(profile, cfg.params, mode)
        kind = "horizontal_field"
    else:
        eps = 0.25 * min(cfg.geometry.h_plus, -cfg.geometry.h_minus)
        w = criteria.small_field_witness(profile, cfg.params, eps)
        kind = "small_field"
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": kind,
        "k1": w.mode.k1, "k2": w.mode.k2,
        "energy_value": w.energy_value,
        "closed_form_value": w.closed_form_value,
        "positive": bool(w.energy_value > 0.0),
    }
    _write_json(out, payload)
    print(f"witness_kind={kind} energy_value={_fmt(w.energy_value)} "
          f"closed_form={_fmt(w.closed_form_value)} positive={str(payload['positive']).lower()} "
          f"agreement={_fmt(w.diagnostics['agreement'])} "
          f"grid_nodes={w.diagnostics['grid_nodes']}")
    return 0


def cmd_thresholds(cfg: RunConfig, out: str) -> int:
    profile = _profile(cfg)
    reports = []
    if cfg.params.medium == MHD:
        reports.append(criteria.vertical_field_threshold(profile, cfg.params.lam,
                                                         cfg.params.M[2]))
    else:
        reports.append(criteria.viscoelastic_threshold(profile, cfg.params.kappa_plus,
                                                       cfg.params.kappa_minus))
    payload = {
        "schema_version": SCHEMA_VERSION,
        "reports": [
            {
                "kind": r.kind,
                "threshold_value": r.threshold_value,
                "actual_value": r.actual_value,
                "sufficient_stability": r.sufficient_stability,
                "inputs": r.inputs,
            }
            for r in reports
        ],
    }
    _write_json(out, payload)
    for r in reports:
        if r.kind == "vertical_field":
            label, actual = "vertical_field_threshold", "m3_squared"
        else:
            label, actual = "kappa_threshold", "kappa_min"
        print(f"{label}={_fmt(r.threshold_value)} {actual}={_fmt(r.actual_value)} "
              f"sufficient_stability={str(r.sufficient_stability).lower()}")
    return 0


def cmd_evolve(cfg: RunConfig, out: str) -> int:
    profile, mesh = _build_state(cfg)
    mm = _single_mode(cfg, profile, mesh)
    lam, _, _ = spectral.growth_rate_detailed(mm, cfg.fixed_point_tol)
    dt = cfg.dt if cfg.dt is not None else (1e-3 / lam if lam else 1e-2)
    T = cfg.T if cfg.T is not None else (10.0 / lam if lam else 20.0)
    _check_horizon(dt, T)
    eta0, u0 = evolution.random_initial_data(mm, cfg.seed)
    result = evolution.integrate_linearized(mm, eta0, u0, dt, T)
    evolution.export_trajectory(result, out)
    comparison = {
        "schema_version": SCHEMA_VERSION,
        "lambda": _json_value(lam),
        "fitted_rate": result.fitted_rate,
        "relative_gap": (None if not lam else abs(result.fitted_rate - lam) / lam),
        "energy_balance_residual": result.energy_balance_residual,
        "dt": dt, "T": T, "seed": cfg.seed,
    }
    _write_json(out + ".rate.json", comparison)
    print("fitted_rate=%s lambda=%s" % (
        _fmt(result.fitted_rate), "none" if lam is None else _fmt(lam)))
    return 0


def run(config_path: str, subcommand: str, out: Optional[str] = None,
        fmt: Optional[str] = None, threads: Optional[int] = None) -> int:
    """Execute one subcommand; returns the process exit status.

    ``threads`` is accepted for compatibility and ignored.
    """
    if subcommand not in SUBCOMMANDS:
        print(f"error: unknown subcommand {subcommand!r}", file=sys.stderr)
        return 2
    try:
        cfg = parse_config(config_path)
        if fmt is not None:
            if fmt not in ("csv", "json"):
                raise ValidationError(f"format must be 'csv' or 'json', got {fmt!r}")
            cfg.out_format = fmt
        out = out or cfg.out_path
        if subcommand == "equilibrium":
            return cmd_equilibrium(cfg, out)
        if subcommand == "xi":
            return cmd_xi(cfg, out)
        if subcommand == "growth":
            return cmd_growth(cfg, out)
        if subcommand == "scan":
            return cmd_scan(cfg, out)
        if subcommand == "witness":
            return cmd_witness(cfg, out)
        if subcommand == "thresholds":
            return cmd_thresholds(cfg, out)
        return cmd_evolve(cfg, out)
    except (ConfigError, ValidationError, InvalidGradingError) as exc:
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
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="path to the run configuration")
    parser.add_argument("--out", default=None, help="output artifact path")
    parser.add_argument("--format", default=None, choices=("csv", "json"))
    parser.add_argument("--threads", type=int, default=None,
                        help="accepted and ignored: modes are solved one after another")
    args = parser.parse_args(argv)
    return run(args.config, args.subcommand, args.out, args.format, args.threads)


if __name__ == "__main__":
    raise SystemExit(main())
