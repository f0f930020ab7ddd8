#!/usr/bin/env python3
"""Runs repeated sets of the benchmark and reports each metric's spread.

    python3 perfbench/sets.py [--workloads a,b] [--seeds 1,2,3] [--sets 2]
                              [--seconds S] [--trace] [--other DIR]
                              [--out FILE]

Without --other it runs --sets sets of this checkout, each over every
workload and seed, alternating the order of the workloads from one set to
the next. Per (workload, metric) it prints each set's median, quartiles
(statistics.quantiles(values, n=4)) and spread (interquartile distance over
the median), then checks the rule the benchmark is held to: every
end-to-end spread, setup_s's too, within the metric's bound in
BENCHMARK.json, and no set's median worse than the first set's by more than
the bound. It also checks that fig7_beamformer prints the same decision
fingerprint for a seed in every set.

With --other DIR (another checkout holding the same perfbench/ and
BENCHMARK.json, e.g. the parent commit) it runs this checkout and DIR in
pairs, alternating which side goes first, and prints both sides' medians and
quartiles, the change of the median as a share of DIR's, and how many pairs
this side won.

--trace adds one traced run per (side, workload, seed) and reports the
per-layer metrics next to the end-to-end ones. --out writes everything as
one JSON document: {side: {workload: {"end_to_end": {...}, "per_layer":
{...}, "fingerprints": {...}}}}. Exit status 1 when a check fails.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DETERMINISTIC = ("fig7_beamformer",)


def run_once(root: Path, workload: str, seed: int, seconds: int, trace: int):
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    proc = subprocess.run(command, cwd=root, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.splitlines()
    fingerprint = next((l.split()[2] for l in lines
                        if l.startswith("# fingerprint")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode != 0 or result is None or not result["correct"]:
        print(f"  ! {root.name} {workload} seed {seed} trace {trace}: "
              f"exit {proc.returncode}", file=sys.stderr)
        for line in lines:
            if line.startswith("# FAILED"):
                print("   ", line, file=sys.stderr)
        return None, fingerprint
    return result, fingerprint


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0, "n": len(values),
            "values": values}


def worse_by(metric, base, value):
    """Share by which `value` is worse than `base` (negative when better)."""
    if base == 0:
        return 0.0
    change = (value - base) / abs(base)
    return change if metric["better"] == "lower" else -change


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--other", type=Path)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    workloads = args.workloads.split(",")
    seeds = [int(s) for s in args.seeds.split(",")]
    if len(seeds) < 2:
        parser.error("quartiles need at least two seeds")
    e2e = {m["name"]: m for m in bench["end_to_end"]}

    sides = {"this": ROOT}  # side name -> checkout root
    if args.other:
        sides["other"] = args.other.resolve()
    n_sets = 1 if args.other else args.sets
    runs = {}      # (side, set, workload) -> list of end-to-end results
    traced = {}    # (side, workload) -> list of per-layer results
    prints = {}    # (side, workload, seed) -> set of fingerprints
    ok = True

    for s in range(n_sets):
        order = workloads if s % 2 == 0 else list(reversed(workloads))
        for workload in order:
            for k, seed in enumerate(seeds):
                side_order = list(sides)
                if (s + k) % 2 == 1:
                    side_order.reverse()
                for side in side_order:
                    result, fp = run_once(sides[side], workload, seed,
                                          args.seconds, 0)
                    if result is None:
                        ok = False
                        continue
                    runs.setdefault((side, s, workload), []).append(result)
                    if fp:
                        prints.setdefault((side, workload, seed), set()).add(fp)
                print(f"  set {s} {workload} seed {seed} done", file=sys.stderr)
    if args.trace:
        for workload in workloads:
            for seed in seeds:
                for side in sides:
                    result, _ = run_once(sides[side], workload, seed,
                                         args.seconds, 1)
                    if result is None:
                        ok = False
                        continue
                    traced.setdefault((side, workload), []).append(result)

    document = {}
    for side in sides:
        for workload in workloads:
            entry = document.setdefault(side, {}).setdefault(
                workload, {"end_to_end": {}, "per_layer": {}, "fingerprints": {}})
            print(f"\n== {side} · {workload}")
            for name, metric in e2e.items():
                per_set = []
                for s in range(n_sets):
                    values = [r["metrics"][name]["value"]
                              for r in runs.get((side, s, workload), [])
                              if name in r["metrics"]]
                    if len(values) >= 2:
                        per_set.append(summary(values))
                if not per_set:
                    continue
                first = per_set[0]
                for s, st in enumerate(per_set):
                    drift = worse_by(metric, first["median"], st["median"])
                    flag = ""
                    if st["spread"] > metric["bound"]:
                        flag = "  SPREAD>BOUND"
                        ok = False
                    if drift > metric["bound"]:
                        flag += "  DRIFT>BOUND"
                        ok = False
                    print(f"  {name:20s} set {s}: median {st['median']:.6g} "
                          f"[{st['q1']:.6g}, {st['q3']:.6g}] "
                          f"spread {st['spread']:.4f} "
                          f"(bound {metric['bound']}, third {metric['bound'] / 3:.4f})"
                          f" drift {drift:+.4f}{flag}")
                entry["end_to_end"][name] = {
                    "unit": metric["unit"], "sets": per_set}
            for (sd, w, seed), fps in sorted(prints.items()):
                if sd != side or w != workload:
                    continue
                entry["fingerprints"][str(seed)] = sorted(fps)
                if w in DETERMINISTIC and len(fps) != 1:
                    print(f"  fingerprint of seed {seed} differs between "
                          f"sets: {sorted(fps)}")
                    ok = False
            results = traced.get((side, workload), [])
            for name in sorted({n for r in results for n in r["metrics"]}):
                values = [r["metrics"][name]["value"] for r in results
                          if name in r["metrics"]]
                unit = results[0]["metrics"][name]["unit"]
                st = summary(values) if len(values) >= 2 else {
                    "median": values[0], "q1": values[0], "q3": values[0],
                    "spread": 0.0, "n": 1, "values": values}
                entry["per_layer"][name] = {"unit": unit, **st}
                print(f"  {name:30s} median {st['median']:.6g} {unit} "
                      f"[{st['q1']:.6g}, {st['q3']:.6g}]")

    if args.other:
        print("\n== this vs other (change of the median, + is worse)")
        for workload in workloads:
            a = runs.get(("this", 0, workload), [])
            b = runs.get(("other", 0, workload), [])
            for name, metric in e2e.items():
                va = [r["metrics"][name]["value"] for r in a]
                vb = [r["metrics"][name]["value"] for r in b]
                if len(va) < 2 or len(vb) < 2:
                    continue
                sa, sb = summary(va), summary(vb)
                wins = sum(1 for x, y in zip(va, vb)
                           if worse_by(metric, y, x) < 0)
                change = worse_by(metric, sb["median"], sa["median"])
                flag = "  WORSE>BOUND" if change > metric["bound"] else ""
                print(f"  {workload:17s} {name:20s} this {sa['median']:.6g} "
                      f"[{sa['q1']:.6g}, {sa['q3']:.6g}] other "
                      f"{sb['median']:.6g} [{sb['q1']:.6g}, {sb['q3']:.6g}] "
                      f"change {change:+.4f} wins {wins}/{min(len(va), len(vb))}"
                      f"{flag}")
                if flag:
                    ok = False

    if args.out:
        args.out.write_text(json.dumps(document, indent=1) + "\n")
    print("\nOK" if ok else "\nCHECK FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
