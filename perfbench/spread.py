"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload solve-dense --seeds 0-9
    python3 perfbench/spread.py --workload solve-dense --seeds 0-9 --write perfbench/baseline.json

Runs ``run.py`` once per seed, one run at a time, and prints per metric the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread: the distance between the quartiles as a share of the median. A
spread at or above a third of the metric's bound in BENCHMARK.json is
flagged. ``--write`` appends the summary, stamped, to the list of sets
under the workload's key of a baseline file, and when an earlier set is
there prints how far each median moved from the first set's, flagged when
it got worse by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stdout[-3000:]}{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q[0], "q3": q[2],
            "spread": (q[2] - q[0]) / med if med else 0.0}


def compare(first: dict, now: dict, bounds: dict, lower: dict) -> dict:
    """Each median's change from the first set's, as a share of it; prints
    them and flags a change for the worse beyond the metric's bound."""
    out = {}
    for name, s in now.items():
        base = first.get(name, {}).get("median")
        if not base:
            continue
        change = (s["median"] - base) / base
        out[name] = change
        worse = change if lower[name] else -change
        bound = bounds.get(name)
        flag = "" if bound is None or worse <= bound else "  <-- worse than bound"
        print(f"{name:30s} median {change:+.4f} from the first set" + flag)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write", metavar="FILE", default=None)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower"
             for m in bench["end_to_end"] + bench["per_layer"]}
    seeds = seed_list(args.seeds)
    runs = []
    for seed in seeds:
        res = run_once(args.workload, seed, bench["run_seconds"], args.trace)
        runs.append(res)
        print(f"seed {seed}: " + "  ".join(
            f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()
            if v["value"] is not None), flush=True)
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        if None in values:
            continue
        s = summarize(values)
        s["unit"] = runs[0]["metrics"][name]["unit"]
        summary[name] = s
        bound = bounds.get(name)
        flag = "" if bound is None or s["spread"] < bound / 3 else "  <-- spread >= bound/3"
        print(f"{name:30s} median {s['median']:12.6g}  q1 {s['q1']:12.6g}  "
              f"q3 {s['q3']:12.6g}  spread {s['spread']:.4f}"
              + (f"  bound {bound}" if bound is not None else "") + flag)
    if args.write:
        sys.path.insert(0, HERE)
        import run
        data = {}
        if os.path.exists(args.write):
            with open(args.write, encoding="utf-8") as fh:
                data = json.load(fh)
        sets = data.setdefault(f"{args.workload} trace={args.trace}", [])
        entry = {"stamp": run.stamp(), "seeds": seeds,
                 "run_seconds": bench["run_seconds"], "metrics": summary}
        if sets:
            entry["change_from_first"] = compare(sets[0]["metrics"], summary,
                                                 bounds, lower)
        sets.append(entry)
        with open(args.write, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
