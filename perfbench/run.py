"""Benchmark of the adscmc command line: whole jobs, timed and checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from the root of a source tree that holds src/adscmc.  With --trace 0
it measures the end-to-end metrics of one workload; with --trace 1 the
per-layer metrics of a traced run.  --workload all runs every workload
in turn and prints every metric with its unit and the verdict.
The last stdout line is one JSON object: correct, attempted, failed and
metrics.  A copy with the run's environment is kept in
.perfbench/results/.  See perfbench/README.md for the metrics and the
reasons behind each workload.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, domain_for_seed  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
TAIL_PCT = 90

# the end-to-end metrics BENCHMARK.json bounds: each holds steady from run to run
END_TO_END = (
    ("setup_s", "s"),
    ("job_s.tail", "s"),
    ("peak_rss_mb", "MB"),
    ("gate_ratio", "1"),
    ("oracle_err", "1"),
)

# end-to-end metrics printed and kept in the result file, but not bounded:
# on a machine whose speed steps between levels they move too much from run
# to run (see README.md, Noise)
REPORTED = (
    ("job_s.p50", "s"),
    ("points_per_s", "1/s"),
    ("fail_frac", "1"),
)

PER_LAYER = (
    ("fields.calls", "count"), ("fields.points", "count"),
    ("fields.points_per_call", "points/call"),
    ("lax.integrate_s", "s"), ("lax.assemble_s", "s"),
    ("lax.path_defect", "1"), ("lax.det_drift", "1"),
    ("nullcurves.integrate_s", "s"), ("nullcurves.assemble_s", "s"),
    ("nullcurves.det_drift", "1"),
    ("weierstrass.integrate_s", "s"), ("weierstrass.points_per_cell", "points/cell"),
    ("geometry.report_s", "s"), ("geometry.core_frac", "1"),
    ("gaussmaps.s", "s"),
    ("export.json_write_s", "s"), ("export.json_read_s", "s"),
    ("export.obj_write_s", "s"), ("export.csv_write_s", "s"),
    ("export.bytes_written", "bytes"), ("export.write_mb_per_s", "MB/s"),
    ("cli.self_s", "s"), ("trace.overhead_frac", "1"),
)

# work counters a later change may quote exactly; they repeat run to run
COUNTERS = ("fields.calls", "fields.points", "weierstrass.points_per_cell",
            "export.bytes_written")


class BenchError(Exception):
    """The benchmark cannot produce a result; the message says why."""


def child_env():
    """Environment of every child: src on the path, one thread per library."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def git_revision():
    """HEAD of the tree; None outside a git checkout or without git."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_worker(workload, seed, seconds, trace, env):
    workdir = OUT / f"work-{os.getpid()}-{workload}"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(float(seconds)),
           "--trace", str(trace), "--workdir", str(workdir)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    # the run, its warm-up job and setup probes, with room for a slow machine
    timeout = 2 * seconds + 60
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker for {workload} exceeded {timeout} s") from None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker for {workload} failed (exit {proc.returncode}):\n{err.strip()}")
    return json.loads(lines[-1])


def end_to_end(raw):
    """(bounded metrics, reported-only metrics) of an untraced run."""
    walls = raw["walls"]
    bounded = {
        "setup_s": statistics.median(raw["setup_s"]),
        "job_s.tail": statistics.quantiles(walls, n=100, method="inclusive")[TAIL_PCT - 1],
        "peak_rss_mb": raw["peak_rss_mb"],
        "gate_ratio": raw["gate_ratio"],
        "oracle_err": raw["oracle_err"],
    }
    reported = {
        "job_s.p50": statistics.median(walls),
        "points_per_s": raw["points_per_job"] * len(walls) / sum(walls),
        "fail_frac": raw["failed"] / raw["attempted"],
    }
    return bounded, reported


def per_layer(raw):
    pairs = raw["pairs"]
    n = len(pairs)
    metrics = {}
    for name, _ in PER_LAYER:
        if name != "trace.overhead_frac":
            metrics[name] = sum(m[name] for _, _, m, _ in pairs) / n
    metrics["trace.overhead_frac"] = sum(t for _, t, _, _ in pairs) / sum(p for p, _, _, _ in pairs)
    return metrics


def trace_detail(raw):
    """Per-layer self time, and cli self time as a share of the traced wall.

    The layers' self times add up to the traced wall by construction.
    cli self time is what no layer span covers, so a large share of it
    means a layer function the tracer does not wrap.
    """
    pairs = raw["pairs"]
    details = [d for _, _, _, d in pairs]
    layers = details[0]["layer_self_s"]
    return {
        "layer_self_s": {k: sum(d["layer_self_s"][k] for d in details) / len(details)
                         for k in layers},
        "layer_inclusive_s": {k: sum(d["layer_inclusive_s"][k] for d in details) / len(details)
                              for k in layers},
        "cli_self_frac": sum(d["layer_self_s"]["cli"] for d in details)
        / sum(d["wall_s"] for d in details),
        "spans_per_job": details[0]["spans"],
        "counters_repeat": all(m[c] == pairs[0][2][c] for _, _, m, _ in pairs
                               for c in COUNTERS),
    }


def run_one(workload, seed, seconds, trace):
    """Measure one workload; returns the contract record and the full record."""
    raw = run_worker(workload, seed, seconds, trace, child_env())
    if trace:
        metrics, units = per_layer(raw), dict(PER_LAYER)
        reported = {"fail_frac": raw["failed"] / raw["attempted"]}
    else:
        metrics, reported = end_to_end(raw)
        units = dict(END_TO_END)
    record = {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    full = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "domain": domain_for_seed(seed),
        "environment": {
            "git_revision": git_revision(),
            "python": sys.version.split()[0],
            "numpy": raw["numpy"],
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "threads": raw["threads"],
        },
        "result": record,
        "reported": {k: {"value": v, "unit": dict(REPORTED)[k]} for k, v in reported.items()},
        "problems": raw["problems"],
    }
    if trace:
        full["layers"] = trace_detail(raw)
        full["job_s"] = [[p, t] for p, t, _, _ in raw["pairs"]]
    else:
        full["tail_percentile"] = TAIL_PCT
        full["job_s"] = raw["walls"]
        full["setup_probes_s"] = raw["setup_s"]
    OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
    path = OUT / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(full, indent=1) + "\n")
    return record, full


def print_table(full):
    rec = full["result"]
    print(f"# {full['workload']} seed {full['seed']} domain "
          + " ".join(f"{x:.4f}" for x in full["domain"])
          + f"  jobs {rec['attempted']}  failed {rec['failed']}")
    for name, m in rec["metrics"].items():
        print(f"{full['workload']:16s} {name:28s} {m['value']:.6g} {m['unit']}")
    for name, m in full["reported"].items():
        print(f"{full['workload']:16s} {name:28s} {m['value']:.6g} {m['unit']}  (not bounded)")
    if "tail_percentile" in full:
        print(f"{full['workload']:16s} job_s.tail is p{full['tail_percentile']} "
              f"of {len(full['job_s'])} jobs")
    if "layers" in full:
        tr = full["layers"]
        print(f"{full['workload']:16s} cli self time is {tr['cli_self_frac']:.4f} "
              f"of traced wall; counters repeat: {tr['counters_repeat']}")
    for problem in full["problems"]:
        print(f"{full['workload']:16s} FAILED CHECK: {problem}")
    print(f"{full['workload']:16s} verdict: {'correct' if rec['correct'] else 'INCORRECT'}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "adscmc" / "cli.py").is_file():
        print(f"error: {SRC / 'adscmc'} not found; run from a source tree of the repo",
              file=sys.stderr)
        return 2
    try:
        if args.workload == "all":
            verdicts = []
            for workload in WORKLOADS:
                record, full = run_one(workload, args.seed, args.seconds, args.trace)
                print_table(full)
                verdicts.append(record["correct"])
            return 0 if all(verdicts) else 1
        record, full = run_one(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print_table(full)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
