#!/usr/bin/env python3
"""Runs perfbench/run.py over several seeds and summarises each metric.

Run from the repository root:

    python3 perfbench/collect.py --runs 10 --trace 0 --out perfbench/baseline/end_to_end.json

It runs every workload of BENCHMARK.json for its run_seconds, on seeds 501,
502, ... For every workload and metric it prints the median, the quartiles
(as ``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median. Where the metric
has a bound in BENCHMARK.json it marks spreads above a third of the bound,
and exits 1 if one is wider than the bound itself or a run failed. Time
metrics also keep, run by run, the raw value and the host-speed factors
run.py applied to it. Seeds run in the outer loop, so slow drift on the host
touches every workload alike.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIRST_SEED = 501


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n"
                           f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")

    def tagged(tag: str) -> dict:
        return next((json.loads(line[len(tag) + 1:]) for line in lines
                     if line.startswith(tag + " ")), {})

    return json.loads(lines[-1]), tagged("machine"), tagged("scaling")


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be >= 2 to give quartiles")

    seconds = spec["run_seconds"]
    seeds = list(range(FIRST_SEED, FIRST_SEED + args.runs))
    workloads = [w["name"] for w in spec["workloads"]]
    defs = spec["per_layer" if args.trace else "end_to_end"]
    raw = {w: [] for w in workloads}
    scaling = {w: [] for w in workloads}
    machine = {}
    for seed in seeds:
        for w in workloads:
            result, machine, scaled = run_once(w, seed, seconds, args.trace)
            raw[w].append(result)
            scaling[w].append(scaled)
            print(f"{w} seed {seed}: correct={result['correct']} attempted={result['attempted']}",
                  flush=True)

    ok = True
    summary = {}
    for w in workloads:
        ok &= all(r["correct"] and r["failed"] == 0 for r in raw[w])
        summary[w] = {"attempted": [r["attempted"] for r in raw[w]], "metrics": {}}
        print(f"\n{w}")
        for d in defs:
            stats = summarise([r["metrics"][d["name"]]["value"] for r in raw[w]])
            stats["unit"] = d["unit"]
            measured = [s["metrics"].get(d["name"]) for s in scaling[w]]
            if all(measured):
                stats["raw_values"] = [m["raw"] for m in measured]
                stats["factors"] = [m["factor"] for m in measured]
            summary[w]["metrics"][d["name"]] = stats
            verdict = ""
            if "bound" in d:
                if stats["spread"] > d["bound"]:
                    verdict, ok = "WIDER THAN BOUND", False
                elif stats["spread"] > d["bound"] / 3:
                    verdict = "above bound/3"
            print(f"  {d['name']:<42} median {stats['median']:>12.6g} {d['unit']:<6} "
                  f"q1 {stats['q1']:>12.6g} q3 {stats['q3']:>12.6g} "
                  f"spread {stats['spread']:7.4f} {verdict}")

    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "trace": args.trace,
            "seconds": seconds,
            "seeds": seeds,
            "machine": machine,
            "reference_s": scaling[workloads[0]][0].get("reference_s"),
            "workloads": summary,
        }
        args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
