"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/repeat.py --seeds 1-10 [--workloads wide deep] [--trace 1] [--out FILE]

Runs are sequential, one process each, with BENCHMARK.json's
run_seconds. For every workload and metric it prints the median, the
quartiles (statistics.quantiles, n=4) and their distance as a share of
the median, next to the metric's bound; a spread at or above a third of
the bound is flagged. --out writes the raw values and the summary as
JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else float("nan"),
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    report = {}
    status = 0
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exited {proc.returncode}\n{proc.stderr}")
                return 1
            lines = proc.stdout.strip().splitlines()
            for line in lines[:-1]:
                if line.startswith("FAILED"):
                    print(line)
            result = json.loads(lines[-1])
            runs.append({"seed": seed, **result, "log": lines[:-1]})
            status |= not result["correct"]
        names = list(runs[0]["metrics"])
        summary = {}
        print(f"== {workload}: seeds {args.seeds[0]}-{args.seeds[-1]},"
              f" failed {sum(r['failed'] for r in runs)} of {sum(r['attempted'] for r in runs)}")
        for name in names:
            values = [r["metrics"][name]["value"] for r in runs]
            stats = summarise(values)
            stats["unit"] = runs[0]["metrics"][name]["unit"]
            summary[name] = stats
            bound = bounds.get(name)
            flag = ""
            if bound is not None and not stats["spread"] < bound / 3:
                flag = "  <-- spread >= bound/3"
            print(f"  {name:45s} median {stats['median']:12.5g} {stats['unit']:6s}"
                  f" IQR/median {stats['spread']:7.4f}"
                  + (f" (bound {bound})" if bound is not None else "") + flag)
        report[workload] = {"runs": runs, "summary": summary}
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main())
