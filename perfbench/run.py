"""rt-spectra benchmark: time to a stability verdict, set-up time, memory, and a layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark calls ``rtspectra.cli.run`` in-process, exactly as the
``rt-spectra`` command would, with ``--threads 1`` (the CLI default).  The
seed only generates the INI config the workload gets (see workloads.py for
the workloads and why each exists).  The load is a closed loop with one
client: each CLI call starts after the previous one returns.

BLAS runs single-threaded in this process (BLAS_THREADS).  On a 2-core
machine shared with other work, two OpenBLAS threads made a dense 600x600
eigensolve 2.4x slower than one, with a quartile spread of 25-31 % against
2-17 %; a lattice_vertical pass took 19.5 s against 11 s.  The set-up
probes and the threads-2 comparison run in the caller's environment, so
the result record keeps the BLAS library and the thread count it starts
with by default.

``--trace 0`` measures with tracing off and reports the end-to-end metrics:

verdict_s
    wall time of one pass over the workload's CLI calls; the median over
    the passes of the run.  Passes repeat until ``--seconds`` have passed
    and at least MIN_PASSES have run; the first pass is a cold start, as
    every ``rt-spectra`` command is.
setup_s
    a fresh interpreter's ``import rtspectra`` plus the profile, mesh and
    form coefficients for the config (setup_probe.py); median of
    SETUP_REPEATS interpreters.
peak_rss_mb
    peak resident memory of this process after its first pass, which is
    the only workload pass it has run by then.

Every pass is checked by the workload's correctness gate, and two passes
of one seed must write byte-identical artifacts.  ``failed_frac`` (failed
modes, checks and CLI calls over attempts) is printed, and is what the
``failed`` and ``attempted`` fields of the result line count.

``--trace 1`` runs a warm-up pass, a traced pass and an untraced pass, and
reports per-layer metrics computed from the spans (spans.py), the tracing
overhead (traced minus untraced verdict_s) and, for lattice_vertical, the
scan's wall time at ``--threads 2`` over ``--threads 1``.

Each run writes its configs, artifacts, a result record (seed, config,
BLAS library and thread count, every sample) and the span file under
perfbench/out/.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from setup_probe import blas_info
from spans import Tracer, by_name, layer_metrics, unit
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 3
MIN_PASSES = 2
BLAS_THREADS = "1"
SETUP_TIMEOUT_S = 60
CLI_TIMEOUT_S = 120
THREADS = 1
PERCENTILES = (50, 75, 90, 95, 99, 99.9)


@dataclass
class Pass:
    verdict_s: float = 0.0
    call_s: dict = field(default_factory=dict)
    failed_calls: int = 0
    checks: list = field(default_factory=list)
    failed_modes: int = 0


def run_pass(workload, config_path, pass_dir):
    """Run the workload's CLI calls once, timing only the calls themselves."""
    from rtspectra import cli

    pass_dir.mkdir(parents=True)
    result = Pass()
    for sub, artifact in workload.calls:
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sys.stderr):
                code = cli.run(str(config_path), sub, out=str(pass_dir / artifact), threads=THREADS)
        except Exception:  # noqa: BLE001 - a crash is a failed call, counted and reported
            traceback.print_exc()
            code = None
        elapsed = time.perf_counter() - t0
        result.call_s[sub] = elapsed
        result.verdict_s += elapsed
        if code != 0:
            print(f"{sub}: exit status {code}", file=sys.stderr)
            result.failed_calls += 1
    return result


def gate(workload, pass_dir, result):
    """Run the workload's checks; artifacts that cannot be read fail every mode."""
    try:
        result.checks, result.failed_modes = workload.check(pass_dir)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        result.checks = [(f"readable artifacts ({type(exc).__name__}: {exc})", False)]
        result.failed_modes = workload.modes


def artifacts(pass_dir):
    return {p.name: p.read_bytes() for p in sorted(pass_dir.iterdir())}


def tally(workload, passes, identical):
    """(attempted, failed) over modes, checks and CLI calls of every pass."""
    attempted = failed = 0
    for p in passes:
        attempted += workload.modes + len(p.checks) + len(p.call_s)
        failed += p.failed_modes + sum(not ok for _, ok in p.checks) + p.failed_calls
    attempted += len(identical)
    failed += sum(not ok for ok in identical)
    return attempted, failed


def summarize(samples):
    """Median, the highest percentile with at least ten samples beyond it, and n."""
    xs = sorted(samples)
    tail = None
    for pct in PERCENTILES:
        if len(xs) * (100 - pct) / 100 >= 10:
            tail = (pct, xs[min(len(xs) - 1, int(len(xs) * pct / 100))])
    return {"median": statistics.median(xs), "tail": tail, "n": len(xs)}


def probe_setup(config_path, env):
    """One fresh interpreter's set-up time and the BLAS it loaded (setup_probe.py)."""
    proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), str(config_path)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=SETUP_TIMEOUT_S, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def measure(workload, config_path, run_dir, seconds, user_env):
    """End-to-end metrics with tracing off."""
    probes = [probe_setup(config_path, user_env) for _ in range(SETUP_REPEATS)]
    setup = [probe["setup_s"] for probe in probes]
    passes, rss_mb = [], None
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        pass_dir = run_dir / f"pass{len(passes)}"
        p = run_pass(workload, config_path, pass_dir)
        if rss_mb is None:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        gate(workload, pass_dir, p)
        passes.append(p)
    first = artifacts(run_dir / "pass0")
    identical = [artifacts(run_dir / f"pass{i}") == first for i in range(1, len(passes))]
    verdict = summarize([p.verdict_s for p in passes])
    setup_summary = summarize(setup)
    metrics = {
        "verdict_s": (verdict["median"], "s"),
        "setup_s": (setup_summary["median"], "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    detail = {"passes": [vars(p) for p in passes], "verdict_s": verdict,
              "setup_s": setup_summary, "setup_samples": setup, "identical_artifacts": identical,
              "blas_default": probes[-1]["blas"]}
    return metrics, passes, identical, detail


def cli_scan(config_path, out_dir, threads, env):
    """Wall time and scan CSV (None on failure) of one ``rt-spectra scan`` process."""
    out_dir.mkdir(parents=True)
    cmd = [sys.executable, "-m", "rtspectra.cli", "scan", "--config", str(config_path),
           "--out", str(out_dir / "scan.csv"), "--threads", str(threads)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, env={**env, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        print(proc.stderr, file=sys.stderr)
        return elapsed, None
    return elapsed, (out_dir / "scan.csv").read_bytes()


def measure_traced(workload, config_path, run_dir, spans_path, user_env):
    """Per-layer metrics from one traced pass, between two untraced ones.

    The first pass only warms the process (allocator, caches), so that the
    traced pass and the untraced pass after it start from the same state
    and their difference is the tracing overhead.
    """
    def gated_pass(name, tracer=None):
        with tracer or contextlib.nullcontext():
            p = run_pass(workload, config_path, run_dir / name)
        gate(workload, run_dir / name, p)
        return p

    warmup = gated_pass("warmup")
    tracer = Tracer()
    try:
        traced = gated_pass("traced", tracer)
    finally:
        tracer.write(spans_path)
    untraced = gated_pass("untraced")
    reference = artifacts(run_dir / "warmup")
    identical = [artifacts(run_dir / name) == reference for name in ("traced", "untraced")]

    layer = layer_metrics(tracer.spans)
    layer["trace.verdict_untraced_s"] = untraced.verdict_s
    layer["trace.verdict_traced_s"] = traced.verdict_s
    layer["trace.overhead_s"] = traced.verdict_s - untraced.verdict_s
    ratio, detail_threads = 0.0, None
    if workload.name == "lattice_vertical":
        # Does the scan's thread pool oversubscribe the BLAS threads?  Asked of
        # the command as users run it, with the default BLAS threads.
        t1, csv1 = cli_scan(config_path, run_dir / "threads1", 1, user_env)
        t2, csv2 = cli_scan(config_path, run_dir / "threads2", 2, user_env)
        ratio = t2 / t1
        detail_threads = {"threads1_s": t1, "threads2_s": t2}
        identical.append(csv1 is not None and csv1 == csv2)
    layer["spectral.global_scan.threads2_over_threads1"] = ratio
    metrics = {name: (value, unit(name)) for name, value in layer.items()}
    passes = {"warmup": warmup, "traced": traced, "untraced": untraced}
    detail = {"passes": {k: vars(p) for k, p in passes.items()},
              "by_name": by_name(tracer.spans), "identical_artifacts": identical,
              "scan_threads": detail_threads,
              "blas_default": probe_setup(config_path, user_env)["blas"],
              "spans_file": str(spans_path.relative_to(ROOT))}
    return metrics, list(passes.values()), identical, detail


def main(argv=None):
    if not (SRC / "rtspectra" / "__init__.py").is_file():
        print(f"error: no rtspectra package under {SRC}", file=sys.stderr)
        return 2
    user_env = dict(os.environ)
    os.environ["OPENBLAS_NUM_THREADS"] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)
    from rtspectra import cli  # noqa: F401 - import (and byte-compile) before timing

    workload = WORKLOADS[args.workload]
    run_dir = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    config_text = workload.make_config(args.seed)
    config_path = run_dir / "config.ini"
    config_path.write_text(config_text)

    if args.trace:
        metrics, passes, identical, detail = measure_traced(
            workload, config_path, run_dir, run_dir / "spans.jsonl", user_env)
    else:
        metrics, passes, identical, detail = measure(workload, config_path, run_dir, args.seconds,
                                                        user_env)
    attempted, failed = tally(workload, passes, identical)

    record = {"workload": workload.name, "why": workload.why, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "threads": THREADS,
              "config": config_text, "blas": blas_info(), "attempted": attempted,
              "failed": failed, "failed_frac": failed / attempted,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
              "detail": detail}
    (run_dir / "result.json").write_text(json.dumps(record, indent=2, sort_keys=True))

    for i, p in enumerate(passes):
        for name, ok in p.checks:
            if not ok:
                print(f"FAILED check (pass {i}): {name}")
    if not all(identical):
        print("FAILED check: artifacts of one seed differ between passes")
    if not args.trace:
        for name in ("verdict_s", "setup_s"):
            s = detail[name]
            tail = "none with 10 samples beyond it" if s["tail"] is None else "p%g=%.4f" % s["tail"]
            print(f"{workload.name} {name}: median={s['median']:.4f} s, {tail}, n={s['n']}")
        print(f"{workload.name} peak_rss_mb: {metrics['peak_rss_mb'][0]:.1f} MB")
    print(f"{workload.name} failed_frac: {failed}/{attempted} = {failed / attempted:.4g}")
    print(f"result record: {(run_dir / 'result.json').relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
