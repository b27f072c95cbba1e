"""Print the dtype, shape and SHA-256 of every assembled band, for the benchmark
workloads' configs.

Run from the repository root:

    PYTHONPATH=src python tests/band_digest.py > digest.txt

Two checkouts, or two runs under different PYTHONHASHSEED values, that print
the same lines assemble the same bits.  The configs are those of
``perfbench/workloads.py`` at seeds 1-5.  For each, every form of
:data:`~rtspectra.assembly.FORMS` is read from the
:class:`~rtspectra.assembly.ModeMatrices` of the modes |k1|, |k2| <= 2: the
verdict forms from the scan's polynomial, the coercivity metric from its own
build on first read.  pytest does not collect this file.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS  # noqa: E402

from rtspectra import assembly, cli  # noqa: E402
from rtspectra.modereduce import FourierMode  # noqa: E402

SEEDS = range(1, 6)
K = range(-2, 3)


def digest(array: np.ndarray) -> str:
    return f"{array.dtype} {array.shape} {hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()}"


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        for name in sorted(WORKLOADS):
            for seed in SEEDS:
                path = Path(tmp) / f"{name}_{seed}.ini"
                path.write_text(WORKLOADS[name].make_config(seed))
                cfg = cli.parse_config(str(path))
                bands = assembly.BandPolynomial(cli._coeffs(cfg))
                for k1 in K:
                    for k2 in K:
                        mm = bands.at(FourierMode.from_indices(k1, k2, cfg.geometry))
                        for form in assembly.FORMS:
                            print(name, seed, (k1, k2), form, digest(getattr(mm, form)))


if __name__ == "__main__":
    main()
