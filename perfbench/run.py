#!/usr/bin/env python3
"""trimgrad training benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (the trimgrad libraries plus the measuring program) into
.bench_build/perfbench on first use, runs one workload and prints, as the
last line of standard output, one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 reports the end-to-end metrics of
BENCHMARK.json, --trace 1 the per-layer ones (spans go to
.bench_build/perfbench/traces/). Lines before it are noise diagnostics.

The program's outputs are checked three ways: every repeated cell replays
bit-identically within a run, the traced round driver's digest equals
DdpTrainer's, and a run's digest equals that of every earlier run of the
same workload and seed in this checkout (.bench_build/perfbench/digests.json).
A failed check prints correct=false and exits 1.
"""

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("grid_inject_vgg", "fabric_trim_incast", "fabric_reliable_aimd")
# Fresh set-up processes per run; setup_s is the slowest of them.
SETUP_REPEATS = 7
PROGRAM_TIMEOUT_S = 170

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no trimgrad sources under {ROOT / 'src'}")
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def cpu_times():
    """Aggregate /proc/stat cpu line: (steal ticks, total ticks)."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except OSError:
        return 0, 0
    # user nice system idle iowait irq softirq steal [guest guest_nice]:
    # guest time is already counted in user, so total stops at steal.
    return fields[7], sum(fields[:8])


def program(args):
    proc = subprocess.run([str(BINARY)] + args, stdout=subprocess.PIPE,
                          text=True, timeout=PROGRAM_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"perfbench {' '.join(args)} printed nothing "
             f"(exit {proc.returncode})")
    return proc.returncode, json.loads(lines[-1])


def check_digest(workload, seed, report):
    """Compare against earlier runs of (workload, seed) in this checkout."""
    path = BUILD / "digests.json"
    known = json.loads(path.read_text()) if path.is_file() else {}
    entry = known.setdefault(f"{workload}:{seed}", {})
    errors = []
    for key in ("digest", "round_loss_digest"):
        value = report[key]
        if not value:
            continue
        if key in entry and entry[key] != value:
            errors.append(f"{key} {value} differs from an earlier run's "
                          f"{entry[key]}")
        entry.setdefault(key, value)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    tmp.replace(path)
    return errors


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = ap.parse_args()
    if a.seconds < 1:
        fail("--seconds must be at least 1")
    seed = str(a.seed % 2**64)

    build()

    # Set-up samples are taken half before and half after the measured run,
    # so they span the run instead of one moment of machine load.
    setups = []

    def sample_setups(n):
        for _ in range(n if a.trace == 0 else 0):
            code, out = program(["setup", a.workload, seed])
            if code:
                fail(f"set-up run exited {code}")
            setups.append(out["setup_s"])

    sample_setups(SETUP_REPEATS // 2)
    traces = BUILD / "traces"
    traces.mkdir(exist_ok=True)
    trace_file = traces / f"{a.workload}-{seed}.json"
    steal0, total0 = cpu_times()
    child0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.monotonic()
    code, rep = program(["run", a.workload, seed, str(a.seconds),
                         str(a.trace), str(trace_file)])
    wall = time.monotonic() - t0
    child1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    steal1, total1 = cpu_times()
    sample_setups(SETUP_REPEATS - SETUP_REPEATS // 2)

    metrics = {}
    if setups:
        # The slowest sample: each is short enough to run at one of the
        # host's two speeds (perfbench/WORKLOADS.md, "Method").
        metrics["setup_s"] = {"value": max(setups), "unit": "s"}
        print(f"setup_s samples: {' '.join(f'{s:.4f}' for s in setups)}")
    errors = list(rep["errors"]) + check_digest(a.workload, seed, rep)
    if code and not rep["errors"]:
        errors.append(f"perfbench exited {code}")
    metrics.update(rep["metrics"])

    steal = (steal1 - steal0) / max(total1 - total0, 1)
    cpu = (child1.ru_utime - child0.ru_utime) + (child1.ru_stime - child0.ru_stime)
    print(f"diagnostics: steal_share={steal:.4f} process_cpu_s={cpu:.2f} "
          f"wall_s={wall:.2f} threads={rep['threads']:.0f} "
          f"nproc={os.cpu_count()} isa={rep['isa']} passes={rep['passes']:.0f} "
          f"warmup_s={rep['warmup_s']:.3f} "
          f"warmup_cells={rep['warmup_cells']:.0f}")
    print("pass round_ms_p50: " +
          " ".join(f"{v:.2f}" for v in rep["pass_round_ms_p50"]))
    print("pass round_ms_p90: " +
          " ".join(f"{v:.2f}" for v in rep["pass_round_ms_p90"]))
    print("pass s: " + " ".join(f"{v:.3f}" for v in rep["pass_s"]))
    print(f"samples: {len(rep['pass_s'])} passes; round_ms_p50 is the mean of "
          f"their round medians, round_ms_p90 the slowest one's p90; "
          f"{rep['round_samples']:.0f} rounds in all, "
          f"traced rounds {rep['traced_round_samples']:.0f}; "
          f"digest={rep['digest']}")
    for e in errors:
        print(f"check failed: {e}")
    print(json.dumps({
        "correct": not errors,
        "attempted": int(rep["attempted"]),
        "failed": int(rep["failed"]),
        "metrics": metrics,
    }))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
