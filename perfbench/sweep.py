"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/sweep.py [--workloads studies ladder oracle]
        [--seeds 1-10] [--traced] [--out perfbench/baseline/NAME.json]

Each run is ``perfbench/run.py`` at the ``run_seconds`` of BENCHMARK.json.
For every workload and end-to-end metric it prints the median, the first
and third quartile (``statistics.quantiles(n=4)``), and the spread
``(q3 - q1) / median`` against a third of the metric's bound.  ``--traced``
adds one traced run per workload at the first seed.  ``--out`` writes every
value and the environment record as one JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(spec, workload, seed, trace) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}")
    return json.loads(lines[-1])


def summarize(values) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"run_seconds": spec["run_seconds"], "seeds": args.seeds, "workloads": {}}
    steady = True
    for workload in args.workloads:
        runs = [run_once(spec, workload, seed, 0) for seed in args.seeds]
        if not all(r["correct"] and r["failed"] == 0 for r in runs):
            steady = False
            print(f"{workload}: a run failed a gate")
        entry = {"attempted": [r["attempted"] for r in runs], "metrics": {}}
        for name, bound in bounds.items():
            s = summarize([r["metrics"][name]["value"] for r in runs])
            entry["metrics"][name] = s
            ok = name == "setup_s" or s["spread"] < bound / 3
            steady &= ok
            print(f"{workload:8s} {name:13s} median={s['median']:.6g} "
                  f"q1={s['q1']:.6g} q3={s['q3']:.6g} spread={s['spread']:.4f} "
                  f"bound/3={bound / 3:.4f} {'ok' if ok else 'WIDE'}", flush=True)
        if args.traced:
            traced = run_once(spec, workload, args.seeds[0], 1)
            entry["traced"] = {k: v["value"] for k, v in traced["metrics"].items()}
        report["workloads"][workload] = entry

    if args.out:
        last = args.workloads[-1]
        record = ROOT / "perfbench" / "out" / f"{last}-seed{args.seeds[-1]}-trace0.json"
        report["env"] = json.loads(record.read_text())["env"]
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
