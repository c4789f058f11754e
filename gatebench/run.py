#!/usr/bin/env python3
"""Gate-simulation benchmark for cavityfredkin.

Usage, from the root of a source checkout:

    python3 gatebench/run.py --workload coherent_sweep --seed 1 --seconds 8 --trace 0

One client calls ``cavityfredkin.cli.run_experiment`` (what the
``cavityfredkin`` command runs) in a closed loop, one call at a time, in
whole rounds until ``--seconds`` have passed.  Outputs are checked against
an independent reference after the timed loop.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``,
one sweep worker, spans recorded by :mod:`tracing`).  See README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np
import scipy

import checks
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH_DIR, "out")

SETUP_REPEATS = 5
SETUP_SNIPPET = ("import cavityfredkin.cli\n"
                 "from cavityfredkin.hilbert import build_space\n"
                 "assert build_space(2, 2).dim == 68\n")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _environment(nproc: int) -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return (f"# env: nproc {nproc} (of {os.cpu_count()} CPUs), python "
            f"{platform.python_version()}, numpy {np.__version__}, scipy "
            f"{scipy.__version__}, BLAS {blas.get('name')} {blas.get('version')}, "
            f"BLAS threads {_blas_threads()}")


def _blas_threads():
    """Thread count of numpy's OpenBLAS, read from the loaded library."""
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def _setup_seconds() -> list:
    """Wall time of a fresh interpreter that imports the CLI and builds the
    68-state sector space, repeated; every command pays this first."""
    env = {**os.environ, "PYTHONPATH": SRC}
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_SNIPPET], cwd=ROOT, env=env,
                       check=True, timeout=120)
        times.append(time.perf_counter() - t0)
    return times


class Call:
    """One timed run_experiment call and what it produced."""

    def __init__(self, op, output: str):
        self.op = op
        self.output = output
        self.seconds = 0.0
        self.summary = None
        self.error = ""


def _run_loop(workload, seed, seconds, workers, run_dir):
    from cavityfredkin.cli import ExperimentConfig, run_experiment

    calls = []
    rounds = 0
    start = time.perf_counter()
    while True:
        for op in workloads.round_ops(workload, seed, rounds, workers):
            call = Call(op, os.path.join(run_dir, f"call{len(calls)}.csv"))
            cfg = ExperimentConfig(**op.config, output=call.output)
            t0 = time.perf_counter()
            try:
                call.summary = run_experiment(cfg)
            except Exception as exc:  # counted as a failed operation
                call.error = f"{type(exc).__name__}: {exc}"
                traceback.print_exc(file=sys.stderr)
            call.seconds = time.perf_counter() - t0
            calls.append(call)
        rounds += 1
        if time.perf_counter() - start >= seconds:
            break
    return calls, time.perf_counter() - start


def _check(call) -> tuple:
    """(results, fault, problems, lossy point or None) of one call.

    ``fault`` names an exception or a NaN fidelity: the operation failed
    without output to check.  ``problems`` are failed checks: the operation
    failed and its output was wrong.  Lossy points are checked together
    afterwards, since monotonicity in kappa spans calls.
    """
    if call.error:
        return 0, call.error, [], None
    op = call.op
    if op.config["task"] == "populations":
        files = call.summary["files"]
        tables = []
        for path in files:
            header, rows = checks.read_csv(path)
            tables.append([[r[h] for h in header] for r in rows])
        data = np.array(tables)  # (input, time, t + 8 populations)
        problems = checks.check_populations(op.scheme, op.drive, data[0, :, 0], data[:, :, 1:])
        return len(files), "", problems, None
    _, rows = checks.read_csv(call.output)
    done = [r for r in rows if math.isfinite(r["fidelity"])]
    fault = f"{len(rows) - len(done)} rows with NaN fidelity" if len(done) < len(rows) else ""
    if op.config["task"] == "sweep":
        expected = op.config["sweep_points"] * len(op.config["scheme"].split(","))
        problems = [] if len(rows) == expected else [f"{len(rows)} rows, expected {expected}"]
        return len(done), fault, problems + checks.check_decay_free(done), None
    if fault:
        return 0, fault, [], None
    (row,) = rows
    if abs(row["drive"] - op.drive) > 1e-12 * op.drive:
        return 1, "", [f"drive {row['drive']!r} != requested {op.drive!r}"], None
    point = {"scheme": op.scheme, "drive": op.drive, "kappa": op.kappa,
             "gamma": op.gamma, "preset": op.preset, "fidelity": row["fidelity"]}
    return 1, "", [], point


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "cavityfredkin", "cli.py")):
        print(f"error: no cavityfredkin sources under {SRC}; run from the root "
              "of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import cavityfredkin

    if not os.path.abspath(cavityfredkin.__file__).startswith(SRC + os.sep):
        print(f"error: imported cavityfredkin from {cavityfredkin.__file__}, "
              f"not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    workers = 1 if args.trace else nproc
    print(_environment(nproc), flush=True)
    run_dir = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    calls, elapsed = _run_loop(args.workload, args.seed, args.seconds, workers, run_dir)
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    outcomes = [_check(call) for call in calls]
    lossy = [i for i, o in enumerate(outcomes) if o[3] is not None]
    for i, extra in zip(lossy, checks.check_lossy([outcomes[i][3] for i in lossy])):
        outcomes[i][2].extend(extra)
    for i, images in (tracer.channels if tracer else []):
        outcomes[i][2].extend(f"channel: {text}" for text in checks.check_choi(images))
    results = failed = 0
    correct = True
    for call, (n, fault, problems, _) in zip(calls, outcomes):
        results += n
        failed += bool(fault or problems)
        for text in ([fault] if fault else []) + problems:
            print(f"# FAIL {call.op.config}: {text}", flush=True)
        correct = correct and not problems
    if tracer is not None:
        tracer.dump(os.path.join(run_dir, "trace.json"))
        metrics = tracer.layer_metrics()
    else:
        setup = _setup_seconds()
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "call_s_p50": (statistics.median(c.seconds for c in calls), "s"),
            "results_per_s": (results / elapsed, "1/s"),
            "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        }
    print(f"# {args.workload}: {len(calls)} calls in {elapsed:.3f} s, "
          f"{results} results, {failed} failed; call seconds "
          f"{[round(c.seconds, 3) for c in calls]}", flush=True)
    print(json.dumps({
        "correct": correct,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
