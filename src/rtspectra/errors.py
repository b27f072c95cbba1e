"""Exception hierarchy for rt-spectra."""


class RTSpectraError(Exception):
    """Base class for all rt-spectra errors."""


class NoRootError(RTSpectraError):
    """Pressure matching at the interface has no positive solution."""


class VacuumReachedError(RTSpectraError):
    """Density hit the non-vacuum floor before reaching the layer boundary."""


class InvalidLawError(RTSpectraError):
    """Pressure-law parameters violate admissibility."""


class OutOfDomainError(RTSpectraError):
    """Evaluation point lies outside [h_minus, h_plus]."""


class GridMismatchError(RTSpectraError):
    """Field and coefficient tables live on different grids."""


class InvalidGradingError(RTSpectraError):
    """Mesh grading is not admissible: below 1, or a degenerate smallest element."""


class DefinitenessError(RTSpectraError):
    """A matrix required to be positive definite failed the check."""


class AssemblyError(RTSpectraError):
    """Matrix assembly failed."""


class EigenSolverError(RTSpectraError):
    """Generalized eigensolver failed or produced an unacceptable residual."""


class BracketError(RTSpectraError):
    """No sign change found below the safe upper bound for the fixed point."""


class IndefinitePencilError(RTSpectraError):
    """Coercivity pencil is indefinite: the mode is not strictly stable."""


class DegenerateModeError(RTSpectraError):
    """Witness construction requires a nonzero first wavenumber."""


class FieldOrientationError(RTSpectraError):
    """Witness construction requires a purely horizontal base field."""


class ConcentrationError(RTSpectraError):
    """No sampled concentration width produced a negative jump integral."""


class BadDirectionError(RTSpectraError):
    """Direction vector must have third component equal to one."""


class StepError(RTSpectraError):
    """Linear solve inside an implicit time step failed."""


class BlowupError(RTSpectraError):
    """Trajectory norms exceeded representable range; shorten the horizon."""


class DegenerateFitError(RTSpectraError):
    """Rate fit has too few samples or nonpositive norms."""


class ConfigError(RTSpectraError):
    """Configuration file could not be parsed."""


class ValidationError(RTSpectraError):
    """Configuration value violates a constraint."""
