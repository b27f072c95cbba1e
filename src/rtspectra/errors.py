"""Exception hierarchy for rt-spectra.

The class alone says whose fault a failure is:

- :class:`InputError` (also a ``ValueError``): the caller's input is not
  admissible, e.g. a non-finite or out-of-range value, a degenerate mesh,
  an equilibrium that reaches vacuum, or a witness asked for a mode or
  field it does not cover.  The CLI exits 2; a scan whose grid raises it
  ends there, before any artifact is written.
- :class:`SolverError`: the input is admissible but the method could not
  produce an answer (no eigenpair, no fixed point, a failed time step).
  The CLI exits 3, as it does for a bare ``ValueError`` raised while
  solving.  A scan lists each mode that raised it as failed, goes on, and
  writes its artifacts.

Each input is checked once, by the type or function that owns it, before
any solve.  An artifact that cannot be written raises ``OSError``, which
the CLI also maps to exit 2; every artifact is opened by
:func:`open_artifact`, so that error names the file.
"""

import contextlib
import os


class RTSpectraError(Exception):
    """Base class for all rt-spectra errors."""


class InputError(RTSpectraError, ValueError):
    """The caller's input is at fault."""


class SolverError(RTSpectraError):
    """The method could not produce an answer for admissible input."""


@contextlib.contextmanager
def open_artifact(path):
    """Open `path` for writing text.  An OSError raised while opening,
    writing or closing it carries `path` as its filename."""
    try:
        with open(path, "w") as fh:
            yield fh
    except OSError as exc:
        if exc.filename is None:
            exc.filename = os.fspath(path)
        raise
