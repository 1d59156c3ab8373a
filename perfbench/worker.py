"""One workload run in a fresh process: warm-up, timed jobs, checks.

Started by run.py with BLAS/OpenMP threads pinned to 1 and src/ on the
path.  Each command is adscmc.cli.main(argv) called in-process with its
output captured.  Prints one JSON object as its last stdout line.
"""

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

from adscmc import cli
from adscmc.config import DEFAULT_TOL

from workloads import build_job, check_command, check_file, domain_for_seed, oracle

SETUP_PROBES = 9


class Capture:
    """Measures each surface the CLI hands to geometry against the oracles.

    Wraps the CLI's own bindings of geometry_report and fundamental_data,
    so only the surfaces a command measures are checked; the time spent
    here is subtracted from the job's wall time.
    """

    NAMES = ("geometry_report", "fundamental_data")

    def __init__(self, domain, tol):
        self.domain = domain
        self.tol = tol
        self.cmd = None
        self.measured = []
        self.elapsed = 0.0
        self._saved = []

    def install(self):
        for name in self.NAMES:
            inner = getattr(cli, name)
            self._saved.append((name, inner))
            setattr(cli, name, self._wrap(inner))

    def uninstall(self):
        for name, inner in reversed(self._saved):
            setattr(cli, name, inner)
        self._saved = []

    def _wrap(self, inner):
        def captured(*args, **kwargs):
            result = inner(*args, **kwargs)
            t0 = time.perf_counter()
            fd = getattr(result, "fd", result)
            self.measured.append(oracle(fd, self.domain, self.cmd.nu, self.cmd.nv,
                                        self.cmd.h_star, self.tol))
            self.elapsed += time.perf_counter() - t0
            return result
        return captured


def run_job(job, capture, tracer=None):
    """Run every command of a job; returns (wall_s, verdict dict, trace)."""
    problems = []
    gate_ratio = 0.0
    oracle_err = 0.0
    capture.elapsed = 0.0
    if tracer is not None:
        tracer.begin_job()
    capture.install()
    t0 = time.perf_counter()
    try:
        for cmd in job.commands:
            capture.cmd = cmd
            capture.measured = []
            out, err = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = cli.main(cmd.argv)
            except Exception:  # a crash fails the job; the run goes on
                problems.append(f"{cmd.argv[0]}: {traceback.format_exc(limit=3)}")
                break
            t_check = time.perf_counter()
            v = check_command(cmd, rc, out.getvalue(), capture.measured, DEFAULT_TOL)
            capture.elapsed += time.perf_counter() - t_check
            problems += v.problems
            if rc != 0:
                problems.append(err.getvalue().strip())
            gate_ratio = max(gate_ratio, v.gate_ratio)
            oracle_err = max(oracle_err, v.oracle_err)
    finally:
        wall = time.perf_counter() - t0 - capture.elapsed
        capture.uninstall()
        trace = tracer.end_job(capture.elapsed) if tracer is not None else None
    for cmd in job.commands:
        if cmd.writes and not problems:
            problems += check_file(cmd)
    return wall, {"problems": problems, "gate_ratio": gate_ratio,
                  "oracle_err": oracle_err}, trace


class SetupProbes:
    """Times fresh interpreters from start to an imported, parsed adscmc CLI.

    The probes are spread over the run, between jobs, so that their
    median samples the machine over the whole run and not one moment of
    it.  One unmeasured probe first fills the bytecode and file caches,
    which an installed program has warm.
    """

    CODE = "import adscmc.cli as c; c.build_parser(); print('ready', flush=True)"

    def __init__(self, count):
        self.count = count
        self.times = []
        self._probe()

    def _probe(self):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", self.CODE], stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        _, err = proc.communicate(timeout=60)
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe failed (exit {proc.returncode}): {err.strip()}")
        return elapsed

    def catch_up(self, done_frac):
        """Probe until the count matches the fraction of the run done."""
        while len(self.times) < min(self.count, math.ceil(self.count * done_frac)):
            self.times.append(self._probe())


def timed_loop(seconds, estimate, step, between=None):
    """Call step() until the next job would end past the time limit.

    Runs at least two jobs, so that a percentile of their times exists.
    between(fraction of the time used) runs before each job, untimed.
    """
    start = time.perf_counter()
    walls = []
    while True:
        elapsed = time.perf_counter() - start
        guess = statistics.median(walls) if walls else estimate
        if len(walls) >= 2 and elapsed + guess > seconds:
            return walls
        if between is not None:
            between(elapsed / seconds)
        walls.append(step())


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)

    os.makedirs(args.workdir, exist_ok=True)
    job = build_job(args.workload, args.seed, args.workdir)
    capture = Capture(domain_for_seed(args.seed), DEFAULT_TOL)
    verdicts = []
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()

    try:
        warm, v, _ = run_job(job, capture)
        verdicts.append(v)
        if not args.trace:
            probes = SetupProbes(SETUP_PROBES)

            def step():
                wall, v, _ = run_job(job, capture)
                verdicts.append(v)
                return wall
            walls = timed_loop(args.seconds, warm, step, probes.catch_up)
            probes.catch_up(1.0)
            result = {"walls": walls, "setup_s": probes.times}
        else:
            # alternate plain and traced jobs so drift hits both alike
            pairs = []

            def step():
                plain, v1, _ = run_job(job, capture)
                traced, v2, tr = run_job(job, capture, tracer)
                verdicts.extend((v1, v2))
                pairs.append((plain, traced, tr))
                return plain + traced
            timed_loop(args.seconds, 2 * warm, step)
            result = {"pairs": [(p, t, m, d) for p, t, (m, d) in pairs]}
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)

    result.update({
        "points_per_job": job.points,
        "attempted": len(verdicts),
        "failed": sum(1 for v in verdicts if v["problems"]),
        "problems": [p for v in verdicts for p in v["problems"]][:20],
        "gate_ratio": max(v["gate_ratio"] for v in verdicts),
        "oracle_err": max(v["oracle_err"] for v in verdicts),
        "numpy": np.__version__,
        "threads": {k: v for k, v in os.environ.items() if k.endswith("_THREADS")},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
