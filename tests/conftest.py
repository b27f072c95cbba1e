"""Shared fixtures: the canonical two-layer configuration at test scale."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rtspectra
from rtspectra import assembly
from rtspectra.equilibrium import Geometry, PressureLaw, build_profile
from form_oracles import ModeField
from rtspectra.modereduce import FormCoefficients, FourierMode
from rtspectra.params import PhysicalParams


@pytest.fixture(scope="session")
def geometry():
    return Geometry(h_minus=-1.0, h_plus=1.0, L1=1.0, L2=1.0)


@pytest.fixture(scope="session")
def canonical_profile(geometry):
    """c+^2=1, c-^2=2, g=1, rho(0+)=2: the RT-unstable reference profile."""
    return build_profile(geometry, PressureLaw.linear(1.0), PressureLaw.linear(2.0),
                         g=1.0, rho_plus_at_interface=2.0)


@pytest.fixture(scope="session")
def mesh60(geometry):
    return assembly.build_mesh(geometry, n_per_layer=60, grading=1.05)


@pytest.fixture(scope="session")
def baseline_params():
    return PhysicalParams(mu_plus=0.1, mu_minus=0.1, bulk_plus=0.1, bulk_minus=0.1,
                          lam=1.0, M=(0.0, 0.0, 0.0))


@pytest.fixture(scope="session")
def mixed_params():
    """General base field and distinct layer materials."""
    return PhysicalParams(mu_plus=0.1, mu_minus=0.2, bulk_plus=0.15, bulk_minus=0.05,
                          lam=1.3, M=(0.3, -0.2, 0.7), kappa_plus=0.8, kappa_minus=0.5)


@pytest.fixture(scope="session")
def coeffs60(canonical_profile, mixed_params, mesh60):
    return FormCoefficients(canonical_profile, mixed_params, mesh60.nodes)


def random_field(grid, rng, complex_valued=True):
    """Random admissible ModeField (Dirichlet ends, shared interface node)."""
    values = rng.standard_normal((grid.size, 3))
    if complex_valued:
        values = values + 1j * rng.standard_normal((grid.size, 3))
    values = values.astype(complex)
    values[0] = values[-1] = 0.0
    return ModeField(grid, values)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def run_python(code: str) -> str:
    """stdout of a fresh interpreter that runs `code` with this checkout's rtspectra."""
    src = str(Path(rtspectra.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return out.stdout.strip()


def make_mode(k1, k2, geometry):
    return FourierMode.from_indices(k1, k2, geometry)
