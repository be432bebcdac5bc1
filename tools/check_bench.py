#!/usr/bin/env python3
"""Validate bench JSON outputs and gate on regressions.

Usage:
    check_bench.py CANDIDATE [--baseline BENCH_parallel.json]
                   [--max-slowdown 2.0] [--min-speedup 3.0]
    check_bench.py --elastic BENCH_elastic.json
    check_bench.py --simscale BENCH_simscale.json
                   [--baseline BENCH_simscale.json]
                   [--max-slowdown 2.0] [--min-speedup 3.0]
    check_bench.py --chaos-search BENCH_chaos_search.json
                   [--min-scripts 200] [--min-cells 4]
    check_bench.py --adaptive BENCH_adaptive.json

Default mode validates the BENCH_parallel.json produced by
bench_parallel_scaling (smoke or full size).  The committed baseline holds
full-size numbers; comparisons use per-section throughput (items processed
per second), which is roughly size-invariant, so a smoke run can be compared
against a full-size baseline.

--min-speedup gates parallel *scaling* inside the candidate itself: the
row-parallel codec sections must reach the requested speedup over their own
single-thread time at some measured thread count.  The floor is capped by
the cores the machine actually has (hardware_threads in the JSON), so the
same invocation demands ~3x on an 8-core CI runner and degrades to a plain
no-regression check on a single-core container.

--simscale mode validates the BENCH_simscale.json produced by
bench_simscale (the sharded-simulator scale benchmark).  The run must be
bit-exact across execution modes (deterministic: true), its events/sec must
not regress more than --max-slowdown below the baseline, its event count
must equal the baseline's when both ran the same workload (k, hosts,
smoke), and -- on machines
with enough cores and a full-size (non-smoke) workload -- the sharded
engine's best speedup over its own single-thread time must clear the
hardware-capped --min-speedup floor.  Smoke workloads are too small to
amortize window barriers, so they degrade to determinism + regression
checks with a printed notice.

--chaos-search mode validates the BENCH_chaos_search.json produced by
bench_chaos_search (property-checked chaos search).  The search must have
run to completion over at least --min-scripts fault scripts across at least
--min-cells {transport x codec x queue} cells, with the invariant monitor
demonstrably wired (checks > 0 in every cell), every cell's event queue
drained, and zero violations.  A violation is a red build by definition:
the gate fails and names the shrunk REPRO_chaos_*.txt artifacts (which CI
uploads) -- or reports how many violations the shrinker could not reduce.

--adaptive mode validates the BENCH_adaptive.json produced by
bench_adaptive_policy (the per-round compression control plane under phased
capacity congestion).  The aimd-trim cell must have reached the accuracy
target at all and before every fixed {codec x Q} cell that reached it, its
control trajectory and trained parameters must be bit-identical across
thread counts (deterministic: true), the policy must actually have acted
(switches > 0), and the run must be clean (zero invariant violations, every
loss finite).

--elastic mode validates the BENCH_elastic.json produced by
bench_soak_elastic: the run must have drained its event queue, kept every
epoch loss finite, advanced view versions monotonically, completed at least
one evict->rejoin cycle, and converged back to within its own stated
loss_tolerance of the uninterrupted baseline.

Exit codes: 0 ok, 1 malformed candidate, 2 regression beyond the threshold.
Only the Python standard library is used.
"""

import argparse
import json
import sys


def fail(code, msg):
    print(f"check_bench: FAIL: {msg}", file=sys.stderr)
    sys.exit(code)


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        fail(1, f"cannot parse {path}: {exc}")


def validate(doc, path):
    """Structural checks on a bench_parallel_scaling JSON document."""
    if not isinstance(doc, dict):
        fail(1, f"{path}: top level is not an object")
    for key in ("thread_counts", "sections", "deterministic"):
        if key not in doc:
            fail(1, f"{path}: missing key {key!r}")
    if doc["deterministic"] is not True:
        fail(1, f"{path}: deterministic is not true -- parallel results "
                "diverged from single-threaded reference")
    n_threads = len(doc["thread_counts"])
    if n_threads == 0:
        fail(1, f"{path}: empty thread_counts")
    sections = doc["sections"]
    if not isinstance(sections, dict) or not sections:
        fail(1, f"{path}: sections must be a non-empty object")
    for name, sec in sections.items():
        for key in ("seconds", "items", "throughput"):
            if key not in sec:
                fail(1, f"{path}: section {name!r} missing {key!r}")
        secs = sec["seconds"]
        if len(secs) != n_threads:
            fail(1, f"{path}: section {name!r} has {len(secs)} timings for "
                    f"{n_threads} thread counts")
        if any(not isinstance(s, (int, float)) or s <= 0 for s in secs):
            fail(1, f"{path}: section {name!r} has non-positive timings")
        if not isinstance(sec["items"], int) or sec["items"] <= 0:
            fail(1, f"{path}: section {name!r} has invalid items count")
        if sec["throughput"] <= 0:
            fail(1, f"{path}: section {name!r} has non-positive throughput")


# Sections that run through ThreadPool::parallel_for row-parallelism and are
# therefore expected to scale with cores.  The per-kernel sections (fwht,
# quantize, bitpack, crc32c) are single-thread SIMD primitives and flat by
# construction; gemm/trainer_round scale but saturate memory bandwidth well
# below the codec curve, so the scaling gate covers the RHT codec only.
SCALING_SECTIONS = ("rht_encode_decode",)


def check_scaling(doc, path, min_speedup):
    """Gate parallel speedup of the codec section within one bench run."""
    hw = doc.get("hardware_threads") or 1
    tmax = max(doc["thread_counts"])
    # A machine can only deliver speedup up to its core count; allow ~0.4x
    # per usable core (memory-bandwidth saturation eats the rest) and never
    # demand more than the caller's floor.  On a single-core machine this
    # degrades to 0.8, i.e. "threading must not make the codecs slower".
    allowance = max(0.8, 0.4 * min(hw, tmax))
    floor = min(min_speedup, allowance)
    print(f"check_bench: scaling gate: floor {floor:.2f}x "
          f"(requested {min_speedup:.2f}x, hardware_threads={hw})")
    for name in SCALING_SECTIONS:
        sec = doc["sections"].get(name)
        if sec is None:
            fail(1, f"{path}: scaling section {name!r} missing")
        secs = sec["seconds"]
        best = max(secs[0] / s for s in secs)
        best_t = doc["thread_counts"][max(range(len(secs)),
                                          key=lambda i: secs[0] / secs[i])]
        print(f"check_bench: {name}: best speedup {best:.2f}x "
              f"at {best_t} threads")
        if best < floor:
            fail(2, f"section {name!r} scaled only {best:.2f}x, below the "
                    f"{floor:.2f}x floor")


def validate_simscale(doc, path):
    """Structural checks on a bench_simscale JSON document."""
    if not isinstance(doc, dict):
        fail(1, f"{path}: top level is not an object")
    required = ("hardware_threads", "deterministic", "k", "hosts", "events",
                "thread_counts", "seconds", "events_per_sec", "speedup",
                "sequential")
    for key in required:
        if key not in doc:
            fail(1, f"{path}: missing key {key!r}")
    if doc["deterministic"] is not True:
        fail(1, f"{path}: deterministic is not true -- sharded runs diverged "
                "from the sequential reference")
    n = len(doc["thread_counts"])
    if n == 0:
        fail(1, f"{path}: empty thread_counts")
    for key in ("seconds", "events_per_sec", "speedup"):
        vals = doc[key]
        if len(vals) != n:
            fail(1, f"{path}: {key} has {len(vals)} entries for {n} "
                    "thread counts")
        if any(not isinstance(v, (int, float)) or v <= 0 for v in vals):
            fail(1, f"{path}: {key} has non-positive entries")
    if not isinstance(doc["events"], int) or doc["events"] <= 0:
        fail(1, f"{path}: invalid events count")
    seq = doc["sequential"]
    if not isinstance(seq, dict) or "events_per_sec" not in seq:
        fail(1, f"{path}: sequential is missing events_per_sec")


def check_simscale(args):
    """Gate a bench_simscale run: determinism, scaling, regression."""
    cand = load_json(args.candidate)
    validate_simscale(cand, args.candidate)
    hw = cand.get("hardware_threads") or 1
    best_i = max(range(len(cand["speedup"])), key=lambda i: cand["speedup"][i])
    best = cand["speedup"][best_i]
    best_eps = max(cand["events_per_sec"])
    print(f"check_bench: {args.candidate} is well-formed -- "
          f"{cand['hosts']} hosts (k={cand['k']}), {cand['events']} events, "
          f"bit-exact, best {best_eps:.3g} events/s, best speedup "
          f"{best:.2f}x at {cand['thread_counts'][best_i]} threads")

    if args.min_speedup is not None:
        tmax = max(cand["thread_counts"])
        if cand.get("smoke"):
            print("check_bench: smoke workload -- too small to amortize "
                  "window barriers; scaling gate skipped "
                  "(determinism + regression gates still apply)")
        else:
            allowance = max(0.8, 0.4 * min(hw, tmax))
            floor = min(args.min_speedup, allowance)
            print(f"check_bench: scaling gate: floor {floor:.2f}x "
                  f"(requested {args.min_speedup:.2f}x, "
                  f"hardware_threads={hw})")
            if best < floor:
                fail(2, f"sharded simulator scaled only {best:.2f}x, below "
                        f"the {floor:.2f}x floor")

    if args.baseline is None:
        return
    base = load_json(args.baseline)
    validate_simscale(base, args.baseline)
    # The event count is the engine's determinism fingerprint: on the same
    # workload, a different count means the event order changed.
    workload = ("k", "hosts", "smoke")
    if all(cand.get(key) == base.get(key) for key in workload) \
            and cand["events"] != base["events"]:
        fail(2, f"event count {cand['events']} differs from the baseline's "
                f"{base['events']} on the same workload (k={cand['k']}, "
                f"hosts={cand['hosts']}, smoke={cand.get('smoke')}) -- the "
                "engine's event order changed")
    base_eps = max(base["events_per_sec"])
    ratio = base_eps / best_eps
    print(f"check_bench: events/sec: baseline {base_eps:.3g}, "
          f"candidate {best_eps:.3g} (slowdown {ratio:.2f}x)")
    if ratio > args.max_slowdown:
        fail(2, f"events/sec regressed {ratio:.2f}x vs baseline "
                f"(threshold {args.max_slowdown}x)")
    print(f"check_bench: OK -- simscale within {args.max_slowdown}x "
          "of baseline")


def check_elastic(path):
    """Invariant gate on a bench_soak_elastic JSON document."""
    doc = load_json(path)
    if not isinstance(doc, dict):
        fail(1, f"{path}: top level is not an object")
    required = ("label", "loss_gap", "loss_tolerance", "evictions", "rejoins",
                "time_to_recover_s", "rounds_degraded", "checkpoint_bytes",
                "checkpoint_saves", "views_monotone", "drained", "loss_finite")
    for key in required:
        if key not in doc:
            fail(1, f"{path}: missing key {key!r}")
    for key in ("views_monotone", "drained", "loss_finite"):
        if doc[key] is not True:
            fail(2, f"{path}: invariant {key!r} is {doc[key]!r}, not true")
    if not isinstance(doc["rejoins"], int) or doc["rejoins"] < 1:
        fail(2, f"{path}: no evict->rejoin cycle completed "
                f"(rejoins={doc['rejoins']!r})")
    if doc["evictions"] < doc["rejoins"]:
        fail(1, f"{path}: more rejoins ({doc['rejoins']}) than evictions "
                f"({doc['evictions']})")
    gap, tol = doc["loss_gap"], doc["loss_tolerance"]
    if not (isinstance(gap, (int, float)) and isinstance(tol, (int, float))):
        fail(1, f"{path}: loss_gap/loss_tolerance are not numbers")
    if gap > tol:
        fail(2, f"{path}: healed run did not reconverge -- loss_gap {gap:.4f} "
                f"exceeds tolerance {tol:.4f}")
    if doc["rejoins"] > 0 and doc["time_to_recover_s"] <= 0:
        fail(1, f"{path}: rejoins happened but time_to_recover_s is "
                f"{doc['time_to_recover_s']!r}")
    if doc["checkpoint_saves"] > 0 and doc["checkpoint_bytes"] <= 0:
        fail(1, f"{path}: checkpoints saved but zero bytes recorded")
    print(f"check_bench: {path} OK -- {doc['evictions']} evictions, "
          f"{doc['rejoins']} rejoins, recovered in "
          f"{doc['time_to_recover_s']:.4f}s sim-time, loss gap {gap:.4f} "
          f"<= {tol:.4f}")


def check_chaos_search(args):
    """Gate a bench_chaos_search run: coverage, wiring, zero violations."""
    path = args.candidate
    doc = load_json(path)
    if not isinstance(doc, dict):
        fail(1, f"{path}: top level is not an object")
    required = ("smoke", "k", "scripts_total", "violations_total",
                "unshrunk_violations", "checks_total", "drained_all",
                "search_completed", "repros", "cells")
    for key in required:
        if key not in doc:
            fail(1, f"{path}: missing key {key!r}")
    cells = doc["cells"]
    if not isinstance(cells, list) or not cells:
        fail(1, f"{path}: cells must be a non-empty array")
    cell_scripts = 0
    for cell in cells:
        for key in ("transport", "scheme", "queue", "scripts", "violations",
                    "checks", "repros", "drained"):
            if key not in cell:
                fail(1, f"{path}: cell missing key {key!r}")
        label = f"{cell['transport']}/{cell['scheme']}/{cell['queue']}"
        if not isinstance(cell["scripts"], int) or cell["scripts"] <= 0:
            fail(1, f"{path}: cell {label} ran no scripts")
        if cell["checks"] <= 0:
            fail(1, f"{path}: cell {label} reports zero invariant checks -- "
                    "the monitor was not wired into the closed loop")
        cell_scripts += cell["scripts"]
    if cell_scripts != doc["scripts_total"]:
        fail(1, f"{path}: cells sum to {cell_scripts} scripts but "
                f"scripts_total is {doc['scripts_total']}")
    if doc["checks_total"] <= 0:
        fail(1, f"{path}: zero invariant checks across the whole search")

    if doc["search_completed"] is not True:
        fail(2, f"{path}: the search did not run to completion")
    if doc["scripts_total"] < args.min_scripts:
        fail(2, f"{path}: only {doc['scripts_total']} fault scripts searched, "
                f"below the {args.min_scripts} floor")
    if len(cells) < args.min_cells:
        fail(2, f"{path}: only {len(cells)} cells searched, below the "
                f"{args.min_cells} floor")
    if doc["drained_all"] is not True:
        undrained = [f"{c['transport']}/{c['scheme']}/{c['queue']}"
                     for c in cells if c["drained"] is not True]
        fail(2, f"{path}: event queues not drained in cells {undrained}")
    if doc["violations_total"] != 0 or doc["unshrunk_violations"] != 0:
        repros = doc["repros"]
        detail = (f"minimal repros: {', '.join(repros)}" if repros
                  else "no shrunk repro was produced")
        fail(2, f"{path}: {doc['violations_total']} invariant violations "
                f"({doc['unshrunk_violations']} unshrunk) -- {detail}")
    print(f"check_bench: {path} OK -- {doc['scripts_total']} fault scripts "
          f"across {len(cells)} cells (k={doc['k']}, "
          f"smoke={doc['smoke']}), {doc['checks_total']} invariant checks, "
          "0 violations, all drained")


def check_adaptive(path):
    """Gate a bench_adaptive_policy run: wins, determinism, cleanliness."""
    doc = load_json(path)
    if not isinstance(doc, dict):
        fail(1, f"{path}: top level is not an object")
    required = ("label", "smoke", "target_loss", "adaptive",
                "beats_all_fixed", "deterministic", "decision_digest",
                "violations", "loss_finite", "fixed")
    for key in required:
        if key not in doc:
            fail(1, f"{path}: missing key {key!r}")
    ad = doc["adaptive"]
    if not isinstance(ad, dict):
        fail(1, f"{path}: adaptive must be an object")
    for key in ("name", "tta_s", "final_top1", "mean_q", "switches"):
        if key not in ad:
            fail(1, f"{path}: adaptive missing key {key!r}")
    fixed = doc["fixed"]
    if not isinstance(fixed, list) or not fixed:
        fail(1, f"{path}: fixed must be a non-empty array")
    for cell in fixed:
        for key in ("name", "tta_s", "final_top1"):
            if key not in cell:
                fail(1, f"{path}: fixed cell missing key {key!r}")
    if not isinstance(doc["target_loss"], (int, float)) \
            or doc["target_loss"] <= 0:
        fail(1, f"{path}: target_loss must be a positive number")

    if doc["deterministic"] is not True:
        fail(2, f"{path}: deterministic is not true -- the adaptive control "
                "trajectory or trained parameters diverged across thread "
                "counts")
    if doc["loss_finite"] is not True:
        fail(2, f"{path}: a train loss went non-finite")
    if doc["violations"] != 0:
        fail(2, f"{path}: {doc['violations']} invariant violations")
    if not isinstance(ad["switches"], int) or ad["switches"] < 1:
        fail(2, f"{path}: the policy never switched "
                f"(switches={ad['switches']!r}) -- the control plane is not "
                "wired into the round loop")
    tta = ad["tta_s"]
    if not isinstance(tta, (int, float)) or tta < 0:
        fail(2, f"{path}: the adaptive cell never reached the target loss "
                f"(tta_s={tta!r})")
    # Recompute the verdict from the per-cell numbers; a mismatch with the
    # emitted flag means the producer and this gate disagree on semantics.
    losers = [c for c in fixed if c["tta_s"] >= 0 and tta >= c["tta_s"]]
    recomputed = not losers
    if recomputed != (doc["beats_all_fixed"] is True):
        fail(1, f"{path}: beats_all_fixed={doc['beats_all_fixed']!r} does "
                f"not match the per-cell tta_s values")
    if losers:
        names = ", ".join(f"{c['name']} ({c['tta_s']:.4f}s)" for c in losers)
        fail(2, f"{path}: adaptive tta {tta:.4f}s did not beat: {names}")
    reached = sum(1 for c in fixed if c["tta_s"] >= 0)
    print(f"check_bench: {path} OK -- aimd-trim reached the target in "
          f"{tta:.4f}s sim-time, beating all {len(fixed)} fixed cells "
          f"({reached} reached at all); mean_q {ad['mean_q']:.1f}, "
          f"{ad['switches']} switches, bit-identical across thread counts")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("candidate")
    ap.add_argument("--baseline", default=None,
                    help="committed full-size BENCH_parallel.json; skip the "
                         "regression gate when omitted")
    ap.add_argument("--max-slowdown", type=float, default=2.0,
                    help="fail if candidate throughput is more than this "
                         "factor below baseline (default 2.0)")
    ap.add_argument("--min-speedup", type=float, default=None,
                    help="fail if the codec sections' parallel speedup "
                         "(within the candidate run) stays below this floor, "
                         "capped by the machine's hardware_threads")
    ap.add_argument("--elastic", action="store_true",
                    help="treat CANDIDATE as BENCH_elastic.json from "
                         "bench_soak_elastic and gate its invariants")
    ap.add_argument("--simscale", action="store_true",
                    help="treat CANDIDATE as BENCH_simscale.json from "
                         "bench_simscale and gate determinism, scaling, "
                         "and events/sec regression")
    ap.add_argument("--chaos-search", action="store_true",
                    help="treat CANDIDATE as BENCH_chaos_search.json from "
                         "bench_chaos_search and gate coverage, monitor "
                         "wiring, drain, and zero invariant violations")
    ap.add_argument("--min-scripts", type=int, default=200,
                    help="--chaos-search: minimum fault scripts the search "
                         "must have covered (default 200)")
    ap.add_argument("--min-cells", type=int, default=4,
                    help="--chaos-search: minimum {transport x codec x "
                         "queue} cells searched (default 4)")
    ap.add_argument("--adaptive", action="store_true",
                    help="treat CANDIDATE as BENCH_adaptive.json from "
                         "bench_adaptive_policy and gate the adaptive "
                         "policy's win, determinism, and cleanliness")
    args = ap.parse_args()

    if args.elastic:
        check_elastic(args.candidate)
        return
    if args.simscale:
        check_simscale(args)
        return
    if args.chaos_search:
        check_chaos_search(args)
        return
    if args.adaptive:
        check_adaptive(args.candidate)
        return

    cand = load_json(args.candidate)
    validate(cand, args.candidate)
    print(f"check_bench: {args.candidate} is well-formed "
          f"({len(cand['sections'])} sections, smoke={cand.get('smoke')}, "
          f"isa={cand.get('isa')})")

    if args.min_speedup is not None:
        check_scaling(cand, args.candidate, args.min_speedup)

    if args.baseline is None:
        return

    base = load_json(args.baseline)
    validate(base, args.baseline)

    # Diff the section sets both ways before touching any values: a fresh
    # bench run that grew a section the committed baseline lacks must fail
    # with a regenerate-the-baseline message, not a lookup error.
    missing_in_base = sorted(set(cand["sections"]) - set(base["sections"]))
    if missing_in_base:
        fail(1, f"{args.baseline}: baseline is missing sections "
                f"{missing_in_base} that the candidate run produced -- "
                "regenerate and commit the baseline")
    missing_in_cand = sorted(set(base["sections"]) - set(cand["sections"]))
    if missing_in_cand:
        fail(1, f"{args.candidate}: candidate is missing sections "
                f"{missing_in_cand} present in the baseline")

    worst = None
    for name, bsec in base["sections"].items():
        csec = cand["sections"][name]
        ratio = bsec["throughput"] / csec["throughput"]
        print(f"check_bench: {name}: baseline {bsec['throughput']:.3g} items/s, "
              f"candidate {csec['throughput']:.3g} items/s "
              f"(slowdown {ratio:.2f}x)")
        if worst is None or ratio > worst[1]:
            worst = (name, ratio)
        if ratio > args.max_slowdown:
            fail(2, f"section {name!r} regressed {ratio:.2f}x vs baseline "
                    f"(threshold {args.max_slowdown}x)")
    print(f"check_bench: OK -- worst slowdown {worst[1]:.2f}x ({worst[0]})")


if __name__ == "__main__":
    main()
