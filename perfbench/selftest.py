"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

1. Two traced runs of each workload with the same seed must give
   identical work counters, and every traced job within a run too.
   These counters are what later changes may quote exactly.
2. cli self time, the part of a traced job no layer span covers, must
   stay below CLI_SELF_MAX of the traced wall; a layer call the tracer
   does not wrap would show up there.
3. In a directory holding only BENCHMARK.json and perfbench/, the
   benchmark must exit nonzero without printing a result.

Exits 0 when all hold.
"""

import shutil
import subprocess
import sys
import tempfile

from run import COUNTERS, OUT, ROOT, run_one
from workloads import WORKLOADS

SEED = 7
SECONDS = 3.0
CLI_SELF_MAX = 0.05


def counters_repeat():
    ok = True
    for workload in WORKLOADS:
        first, full = run_one(workload, SEED, SECONDS, trace=1)
        second, _ = run_one(workload, SEED, SECONDS, trace=1)
        for name in COUNTERS:
            a = first["metrics"][name]["value"]
            b = second["metrics"][name]["value"]
            same = a == b
            ok &= same
            print(f"{workload:16s} {name:28s} {a!r:>14} {b!r:>14} {'same' if same else 'DIFFERENT'}")
        layers = full["layers"]
        within = layers["counters_repeat"]
        covered = layers["cli_self_frac"] < CLI_SELF_MAX
        ok &= within and covered and first["correct"] and second["correct"]
        print(f"{workload:16s} counters repeat within the run: {within}; "
              f"cli self time {layers['cli_self_frac']:.4f} of the traced wall, "
              f"below {CLI_SELF_MAX}: {covered}; "
              f"correct: {first['correct'] and second['correct']}")
    return ok


def refuses_without_source():
    OUT.mkdir(exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=OUT)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", f"{bare}/perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    ok = proc.returncode != 0 and '"correct"' not in proc.stdout
    print(f"without src/: exit {proc.returncode}, stderr {proc.stderr.strip()!r} -> "
          f"{'refused' if ok else 'NOT REFUSED'}")
    return ok


def main():
    ok = refuses_without_source()
    ok &= counters_repeat()
    print("selftest:", "pass" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
