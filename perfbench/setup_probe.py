"""Time one fresh interpreter's set-up for a workload config.

    python3 perfbench/setup_probe.py CONFIG.ini

Measures ``import rtspectra`` plus the equilibrium profile, the mesh and the
form-coefficient tables that every subcommand builds before it solves, and
prints ``{"setup_s": ..., "import_s": ..., "blas": ...}`` on one line.  run.py starts this
script several times per run and reports the median as ``setup_s``.
"""

import ctypes
import glob
import json
import os
import sys
import time
from pathlib import Path


def blas_info():
    """The BLAS numpy was built with, and the thread count each loaded OpenBLAS runs."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = {}
    for pkg in (np, scipy):
        libs_dir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in glob.glob(str(libs_dir / "*openblas*")):
            lib = ctypes.CDLL(path)
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    threads[Path(path).name] = fn()
    return {"numpy_blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
            "openblas_threads": threads, "cpu_count": os.cpu_count(),
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS")}


def main(config_path):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    t0 = time.perf_counter()
    import rtspectra
    from rtspectra import assembly, cli
    t_import = time.perf_counter()
    cfg = cli.parse_config(config_path)
    profile = rtspectra.build_profile(cfg.geometry, cfg.law_plus, cfg.law_minus, cfg.g,
                                      cfg.rho_plus_interface)
    mesh = assembly.build_mesh(cfg.geometry, cfg.n_per_layer, cfg.grading)
    rtspectra.FormCoefficients(profile, cfg.params, mesh.nodes, cfg.quadrature_order)
    t1 = time.perf_counter()
    print(json.dumps({"setup_s": t1 - t0, "import_s": t_import - t0, "blas": blas_info()}))


if __name__ == "__main__":
    main(sys.argv[1])
