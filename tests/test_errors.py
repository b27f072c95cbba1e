"""The error classes: every one is raised, and each type refuses its own bad values."""

import ast
import math
from pathlib import Path

import pytest

from rtspectra import errors
from rtspectra.equilibrium import Geometry, PressureLaw, build_profile
from rtspectra.errors import InputError, RTSpectraError, SolverError
from rtspectra.params import PhysicalParams

PACKAGE = Path(errors.__file__).resolve().parent


def _raised_and_caught():
    """Names of the classes raised and caught anywhere in the package."""
    raised, caught = set(), set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call) \
                    and isinstance(node.exc.func, ast.Name):
                raised.add(node.exc.func.id)
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                caught.update(t.id for t in types if isinstance(t, ast.Name))
    return raised, caught


def test_every_error_class_is_used():
    """No dead classes: each subclass is raised, the base class is caught."""
    classes = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and obj.__module__ == errors.__name__}
    raised, caught = _raised_and_caught()
    assert classes - {"RTSpectraError"} <= raised
    assert "RTSpectraError" in caught
    assert all(issubclass(getattr(errors, name), RTSpectraError) for name in classes)
    assert issubclass(InputError, ValueError)
    assert not issubclass(SolverError, ValueError)


def _geometry():
    return Geometry(h_minus=-1.0, h_plus=1.0, L1=1.0, L2=1.0)


# each of these was accepted before the owning type checked finiteness
INADMISSIBLE = {
    "bulk_plus=nan": lambda: PhysicalParams(bulk_plus=math.nan),
    "M1=nan": lambda: PhysicalParams(M=(math.nan, 0.0, 0.0)),
    "L1=inf": lambda: Geometry(h_minus=-1.0, h_plus=1.0, L1=math.inf, L2=1.0),
    "c2=inf": lambda: PressureLaw.linear(math.inf),
    "g=nan": lambda: build_profile(_geometry(), PressureLaw.linear(1.0),
                                   PressureLaw.linear(2.0), math.nan, 2.0),
}


@pytest.mark.parametrize("case", sorted(INADMISSIBLE))
def test_types_refuse_non_finite_values(case):
    with pytest.raises(InputError):
        INADMISSIBLE[case]()
