#!/usr/bin/env python3
"""Steadiness record for the benchmark.

Runs every workload of BENCHMARK.json ten times in each of two sets
(seeds 501-510, then 601-610), plus one traced run per workload and
set. For each end-to-end metric it reports the values, their median
and quartiles, and the spread (third minus first quartile, as a share
of the median, with quartiles from statistics.quantiles(values, n=4)).
It then compares the second set's medians with the first's. Run from
the repository root:

    python3 perfbench/steady.py --out perfbench/steadiness.json
    python3 perfbench/steady.py --check perfbench/steadiness.json

--out writes both sets and their comparison as one record. --check
recomputes every spread and the comparison from a record's values,
fails if they differ from what the record says, and prints them.

A metric is steady when its spread is below a third of its bound. The
exit code is 1 when a run is not correct, a spread (setup_s aside)
exceeds its bound, or a second median is worse than the first by more
than its bound. The comparison of a workload is refused, with exit code
3, when its two sets ran in different host speed phases: when the
median time of the reference loop (the `phase` line of each run) moved
by more than PHASE_TOLERANCE between the sets.
"""

import argparse
import json
import math
import statistics
import subprocess
import sys
import time

RUNS = 10
FIRST_SEEDS = (501, 601)
PHASE_TOLERANCE = 0.10


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    run = {"seed": seed, "sent": result["attempted"], "failed": result["failed"],
           "correct": result["correct"], "wall_s": round(wall, 2)}
    for line in lines:
        if line.startswith("host "):
            run["host"] = json.loads(line.split(" ", 1)[1])
        elif line.startswith("cpu "):
            run["cpus_busy"] = float(line.split(": ")[1].split()[0])
        elif line.startswith("phase ref_loop_ms "):
            run["ref_loop_ms"] = float(line.split()[2])
        elif "round-1 gap left" in line:
            run["gap_left"] = float(line.split("round-1 gap left ")[1].split(",")[0])
            run["digest"] = line.rsplit(" ", 1)[1]
    return result, run


def spread(values, bound, name):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    s = (q3 - q1) / med
    return {"values": values, "median": med, "q1": q1, "q3": q3, "spread": s, "bound": bound,
            "steady": s < bound / 3, "within_bound": name == "setup_s" or s <= bound}


def record_set(spec, seed0):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {"seeds": [seed0, seed0 + RUNS - 1], "workloads": {}}
    for w in (x["name"] for x in spec["workloads"]):
        values = {m: [] for m in bounds}
        runs = []
        for seed in range(seed0, seed0 + RUNS):
            res, run = run_once(spec, w, seed, 0)
            out["host"] = run.pop("host")
            runs.append(run)
            for m in bounds:
                values[m].append(res["metrics"][m]["value"])
            print(f"{w} seed {seed}: correct={res['correct']} failed={res['failed']} "
                  f"ref_loop_ms={run.get('ref_loop_ms')}", file=sys.stderr, flush=True)
        traced, _ = run_once(spec, w, seed0, 1)
        out["workloads"][w] = {
            "runs": runs,
            "metrics": {m: spread(vs, bounds[m], m) for m, vs in values.items()},
            "traced_seed": seed0,
            "traced": {m: v["value"] for m, v in traced["metrics"].items()},
        }
    return out


def compare(spec, first, second):
    worse = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    out = {}
    for w, rec in first["workloads"].items():
        rec2 = second["workloads"][w]
        ref1 = statistics.median(r["ref_loop_ms"] for r in rec["runs"])
        ref2 = statistics.median(r["ref_loop_ms"] for r in rec2["runs"])
        moved = (ref2 - ref1) / ref1
        c = {"ref_loop_ms": {"first_median": ref1, "second_median": ref2, "moved": round(moved, 4),
                             "same_phase": abs(moved) <= PHASE_TOLERANCE}}
        for m, s in rec["metrics"].items():
            m1, m2 = s["median"], rec2["metrics"][m]["median"]
            better, bound = worse[m]
            change = (m2 - m1) / m1 if better == "lower" else (m1 - m2) / m1
            c[m] = {"first_median": m1, "second_median": m2, "worse_by": round(change, 4),
                    "bound": bound, "ok": change <= bound}
        out[w] = c
    return out


def verdict(spec, record):
    """Prints the record's tables and returns the exit code."""
    code = 0
    for i, st in enumerate(record["sets"]):
        print(f"set {i + 1}, seeds {st['seeds'][0]}-{st['seeds'][1]}")
        for w, rec in st["workloads"].items():
            bad = [r for r in rec["runs"] if not r["correct"] or r["failed"]]
            if bad:
                code = 1
                print(f"  {w}: {len(bad)} runs not correct or with failures")
            for m, s in rec["metrics"].items():
                if not s["within_bound"]:
                    code = 1
                flag = "ok" if s["steady"] else ("above a third of bound" if s["within_bound"] else "ABOVE BOUND")
                print(f"  {w:14s} {m:12s} median {s['median']:14.6g}  spread {s['spread'] * 100:6.2f}%  "
                      f"bound {s['bound'] * 100:5.1f}%  {flag}")
    print("second set against the first")
    for w, c in record["second_vs_first"].items():
        ph = c["ref_loop_ms"]
        print(f"  {w:14s} ref_loop_ms    {ph['first_median']:14.6g} -> {ph['second_median']:14.6g}  "
              f"moved {ph['moved'] * 100:+6.2f}%  {'same phase' if ph['same_phase'] else 'DIFFERENT PHASE: refused'}")
        if not ph["same_phase"]:
            code = max(code, 3)
            continue
        for m, x in c.items():
            if m == "ref_loop_ms":
                continue
            if not x["ok"]:
                code = max(code, 1)
            print(f"  {w:14s} {m:14s} {x['first_median']:14.6g} -> {x['second_median']:14.6g}  "
                  f"worse by {x['worse_by'] * 100:+6.2f}%  bound {x['bound'] * 100:4.1f}%  "
                  f"{'ok' if x['ok'] else 'REGRESSED'}")
    return code


def same(a, b):
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, float) or isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)
    return a == b


def check(spec, path):
    with open(path) as f:
        rec = json.load(f)
    for st in rec["sets"]:
        for w in st["workloads"].values():
            for m, s in w["metrics"].items():
                if not same(s, spread(s["values"], s["bound"], m)):
                    sys.exit(f"{path}: the recorded spread of {m} does not follow from its values")
    if not same(rec["second_vs_first"], compare(spec, *rec["sets"])):
        sys.exit(f"{path}: the recorded comparison does not follow from the sets")
    return verdict(spec, rec)


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--out", help="run both sets and write the record here")
    g.add_argument("--check", help="re-check a written record")
    args = p.parse_args()
    spec = load_spec()
    if args.check:
        return check(spec, args.check)
    sets = [record_set(spec, s) for s in FIRST_SEEDS]
    rec = {
        "about": f"Two back-to-back sets of {RUNS} runs per workload (python3 perfbench/steady.py), "
                 f"run_seconds {spec['run_seconds']}. spread = (q3 - q1) / median with quartiles from "
                 "statistics.quantiles(n=4); worse_by compares the second set's median with the first's; "
                 "ref_loop_ms is the reference loop's median time, which tells the host's speed phase; "
                 "gap_left is the share of round 1's gap to optimum.Solve left at the last round.",
        "run_seconds": spec["run_seconds"],
        "runs_per_workload": RUNS,
        "phase_tolerance": PHASE_TOLERANCE,
        "sets": sets,
        "second_vs_first": compare(spec, *sets),
    }
    with open(args.out, "w") as f:
        json.dump(rec, f, indent=1)
        f.write("\n")
    return verdict(spec, rec)


if __name__ == "__main__":
    sys.exit(main())
