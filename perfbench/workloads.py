"""The three benchmark workloads: seeded configs and correctness gates.

Each workload is a fixed list of ``rt-spectra`` subcommands run on one
generated INI config.  The seed only chooses values in that config; the
program sees nothing else of it.  Every workload stresses a different layer,
so that each planned optimisation has one workload that exercises it and
one that bypasses it:

lattice_vertical
    ``thresholds`` then ``scan`` with a vertical field 3-10 % above the
    closed-form sufficient threshold, k_max=4 (41 modes, all stable) at
    n_per_layer=100; viscosities from the seed.  Time goes to assembly,
    ``xi_per_mode`` and the alpha(0) pencil set-up, with no fixed point and
    no evolution.  The 41 modes have only 15 distinct |k|^2, so a solver
    that exploits horizontal isotropy acts here.
growth_mixed
    ``witness`` then ``scan`` with a weak mixed field (|M| in 0.03-0.08, all
    three components nonzero, direction and size from the seed), k_max=1
    (5 modes, 4 unstable) at n_per_layer=100.  The matrices are complex
    Hermitian and the fixed-point loop Lambda^2 = alpha(Lambda) dominates.
    The isotropy shortcut cannot apply, so it must leave this one unchanged.
evolve_crosscheck
    ``evolve`` of mode (1,0) at the default n_per_layer=200 with dt=2e-3 and
    T=80 (40,000 implicit-midpoint steps); m3 in [0, 0.1] and the initial
    data from the seed.  The assembled matrices are used the other way, as
    one sparse LU factorization and many small solves, and a 2.2 MB
    trajectory is written.  The rate is fitted over the second half of
    [0, T], so T must let the unstable mode outgrow the slowly decaying
    ones from any random start: at T=40 (lambda*T ~ 7) one seed in ten had
    a gap of 0.59, as the unstable part dominated only after t ~ 30.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Tuple

PROFILE_INI = """\
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
"""

FIXED_POINT_TOL = 1e-8
EVOLVE_GAP_TOL = 0.02
ENERGY_BALANCE_TOL = 1e-8        # as in the package's own evolution tests

Checks = List[Tuple[str, bool]]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    calls: Tuple[Tuple[str, str], ...]   # (subcommand, artifact file name)
    modes: int                           # Fourier modes solved per pass
    make_config: Callable[[int], str]    # seed -> INI text
    check: Callable[[Path], Tuple[Checks, int]]   # pass dir -> (named checks, failed modes)


def _ini(sections):
    out = [PROFILE_INI]
    for name, items in sections:
        out.append(f"\n[{name}]\n")
        out.extend(f"{k} = {v!r}\n" for k, v in items)
    return "".join(out)


VISCOSITIES = ("mu_plus", "mu_minus", "bulk_plus", "bulk_minus")
FIXED_PHYSICS = [(k, 0.1) for k in VISCOSITIES]


def _vertical_threshold():
    """Closed-form sufficient M3^2 for the fixed profile, as the package computes it."""
    from rtspectra import criteria
    from rtspectra.equilibrium import Geometry, PressureLaw, build_profile

    profile = build_profile(Geometry(-1.0, 1.0, 1.0, 1.0), PressureLaw.linear(1.0),
                            PressureLaw.linear(2.0), 1.0, 2.0)
    return criteria.vertical_field_threshold(profile, 1.0).threshold_value


def lattice_vertical_config(seed):
    rng = random.Random(seed)
    m3 = math.sqrt(_vertical_threshold() * rng.uniform(1.03, 1.10))
    return _ini([
        ("physics", [(k, rng.uniform(0.05, 0.2)) for k in VISCOSITIES]),
        ("mhd", [("lambda", 1.0), ("m1", 0.0), ("m2", 0.0), ("m3", m3)]),
        ("numerics", [("n_per_layer", 100), ("k_max", 4), ("fixed_point_tol", FIXED_POINT_TOL)]),
    ])


def growth_mixed_config(seed):
    rng = random.Random(seed)
    while True:
        d = [rng.gauss(0.0, 1.0) for _ in range(3)]
        norm = math.sqrt(sum(c * c for c in d))
        if min(abs(c) for c in d) >= 0.25 * norm:
            break
    size = rng.uniform(0.03, 0.08)
    m1, m2, m3 = (size * c / norm for c in d)
    return _ini([
        ("physics", FIXED_PHYSICS),
        ("mhd", [("lambda", 1.0), ("m1", m1), ("m2", m2), ("m3", m3)]),
        ("numerics", [("n_per_layer", 100), ("k_max", 1), ("fixed_point_tol", FIXED_POINT_TOL)]),
    ])


def evolve_crosscheck_config(seed):
    rng = random.Random(seed)
    return _ini([
        ("physics", FIXED_PHYSICS),
        ("mhd", [("lambda", 1.0), ("m1", 0.0), ("m2", 0.0), ("m3", rng.uniform(0.0, 0.1))]),
        ("numerics", [("k1", 1), ("k2", 0), ("fixed_point_tol", FIXED_POINT_TOL)]),
        ("evolution", [("dt", 2e-3), ("T", 80.0), ("seed", rng.randrange(2 ** 31))]),
    ])


def _scan_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def check_lattice_vertical(pass_dir):
    reports = _load(pass_dir / "thresholds.json")["reports"]
    summary = _load(pass_dir / "scan.csv.summary.json")["summary"]
    rows = _scan_rows(pass_dir / "scan.csv")
    return [
        ("sufficient_stability is true", reports[0]["sufficient_stability"] is True),
        ("global xi < 1", isinstance(summary["global_xi"], float) and summary["global_xi"] < 1.0),
        ("no growth rate", summary["global_lambda"] is None
         and all(r["lambda"] == "" for r in rows)),
        ("truncation converged", summary["truncation_converged"] is True),
        ("all 41 rows present", len(rows) == 41 and not summary["errors"]),
    ], 41 - len(rows)


def check_growth_mixed(pass_dir):
    witness = _load(pass_dir / "witness.json")
    rows = _scan_rows(pass_dir / "scan.csv")
    summary = _load(pass_dir / "scan.csv.summary.json")["summary"]
    solved = [r for r in rows if r["lambda"] != ""]
    return [
        ("witness positive", witness["positive"] is True and witness["energy_value"] > 0.0),
        ("a mode with xi > 1 and lambda > 0",
         any(r["xi_value"] != "inf" and float(r["xi_value"]) > 1.0 and float(r["lambda"]) > 0.0
             for r in solved)),
        ("fixed-point residuals <= tol*max(1, lambda^2)",
         bool(solved) and all(float(r["residual"]) <= FIXED_POINT_TOL * max(1.0, float(r["lambda"]) ** 2)
                              for r in solved)),
        ("all 5 rows present", len(rows) == 5 and not summary["errors"]),
    ], 5 - len(rows)


def check_evolve_crosscheck(pass_dir):
    rate = _load(pass_dir / "trajectory.csv.rate.json")
    with open(pass_dir / "trajectory.csv") as fh:
        n_lines = sum(1 for _ in fh)
    gap = rate["relative_gap"]
    return [
        ("relative_gap <= 0.02", gap is not None and gap <= EVOLVE_GAP_TOL),
        ("energy-balance residual small", rate["energy_balance_residual"] <= ENERGY_BALANCE_TOL),
        ("trajectory has every step", n_lines == 1 + round(rate["T"] / rate["dt"]) + 1),
    ], 0 if rate["lambda"] else 1


WORKLOADS = {
    w.name: w for w in (
        Workload("lattice_vertical",
                 "41 stable modes, vertical field: assembly, xi_per_mode and alpha(0) set-up",
                 (("thresholds", "thresholds.json"), ("scan", "scan.csv")),
                 41, lattice_vertical_config, check_lattice_vertical),
        Workload("growth_mixed",
                 "weak mixed field, 4 unstable modes: complex matrices, fixed-point loop",
                 (("witness", "witness.json"), ("scan", "scan.csv")),
                 5, growth_mixed_config, check_growth_mixed),
        Workload("evolve_crosscheck",
                 "one mode evolved 40,000 steps: sparse LU solves and trajectory output",
                 (("evolve", "trajectory.csv"),),
                 1, evolve_crosscheck_config, check_evolve_crosscheck),
    )
}
