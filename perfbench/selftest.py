"""Self-test of the benchmark at reduced size.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json and the code name the same metrics and units,
that every workload prints every metric with its unit and a parseable last
JSON line (timed and traced, shipped and jittered catalog), that each gate
fires on a corrupted result and turns the exit code to 1, and that the
command fails without a result where the package is missing.  Takes about
a minute; exits 1 if any check failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

failures = []


def check(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def check_spec(spec: dict) -> None:
    check(set(spec) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}, "BENCHMARK.json has exactly the contract keys")
    check([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
          "BENCHMARK.json workloads match the code")
    check([(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END),
          "end-to-end metrics and units match the code")
    check([(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.LAYER_METRICS),
          "per-layer metrics and units match the code")
    check(any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
              for m in spec["end_to_end"]), "setup_s is an end-to-end metric")


def check_output(workload: str, seed: int, trace: int, expected: dict) -> None:
    what = f"{workload} seed={seed} trace={trace}"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = done.stdout.strip().splitlines()
    check(done.returncode == 0, f"{what}: exit code 0")
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        check(False, f"{what}: last line is JSON")
        return
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{what}: result has exactly the contract keys")
    check(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
          f"{what}: correct, nothing failed")
    metrics = result["metrics"]
    check(set(metrics) == set(expected), f"{what}: every metric reported")
    check(all(metrics[n]["unit"] == u and isinstance(metrics[n]["value"], (int, float))
              for n, u in expected.items() if n in metrics), f"{what}: units and numbers")
    check(all(any(line.startswith(f"{n}=") and f" {u}" in line for line in lines)
              for n, u in expected.items()), f"{what}: each metric printed by name with unit")


def check_gates(ea) -> None:
    table = ea.default_table()
    csv = ea.run_table3(table, jobs=1).to_csv()
    check(workloads.study_problems("table3", csv, 0, csv) == [], "study gate passes the real CSV")
    corrupt = csv.replace("e-0", "e-1", 1)
    check(workloads.study_problems("table3", corrupt, 0, None) != [], "study gate: changed digit")
    check(workloads.study_problems("table3", corrupt, 5, csv) != [],
          "study gate: passes differ at a jittered seed")
    short = "\n".join(csv.splitlines()[:-1]) + "\n"
    check(workloads.study_problems("table3", short, 5, None) != [], "study gate: missing row")

    model = ea.build_cluster(table)
    chain = ea.to_ctmc(ea.eliminate_vanishing(ea.explore(model)), "up")
    state = ea.steady_state_gth(chain)
    u = ea.unavailability(chain, state)
    check(workloads.solve_problems(chain, state) == [] and workloads.seed0_problems(u) == [],
          "ladder gates pass the real (10, 9) solve")
    check(workloads.seed0_problems(u * (1 + 1e-6)) != [], "ladder gate: seed-0 value")
    check(workloads.agreement_problems(u, u * (1 + 1e-9)) != [], "ladder gate: GS vs GTH")
    reversed_pi = state.distribution[::-1].copy()
    skewed = ea.SteadyState(reversed_pi, "gth", float(abs(reversed_pi @ chain.Q).max()))
    check(workloads.solve_problems(chain, skewed) != [], "ladder gate: relative residual")

    est = ea.SimEstimate(1.0 - u, 1e-6, 20, 1e7, 0)
    check(workloads.oracle_problems(est, u) == [], "oracle gate passes an estimate at the exact value")
    check(workloads.oracle_problems(ea.SimEstimate(1.0 - u - 5e-6, 1e-6, 20, 1e7, 0), u) != [],
          "oracle gate: estimate 5 half-widths away")
    check(workloads.oracle_problems(ea.SimEstimate(1.0 - u, 0.0, 20, 1e7, 0), u) != [],
          "oracle gate: zero half-width")


def check_failing_run() -> None:
    """A gate that fires makes the command print correct=false and exit 1."""
    saved = workloads.SEED0_U_10_9
    workloads.SEED0_U_10_9 = saved * 2
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run.main(["--workload", "ladder", "--seed", "0", "--seconds", "1",
                             "--smoke"])
    finally:
        workloads.SEED0_U_10_9 = saved
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    check(code == 1 and result["correct"] is False and result["failed"] >= 1
          and result["metrics"]["ok_ratio"]["value"] < 1.0,
          "corrupted reference: exit 1, correct=false, the op counted as failed")


def check_bare_directory() -> None:
    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "studies",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    check(done.returncode != 0 and '"metrics"' not in done.stdout,
          "without src/: non-zero exit and no result")


def main() -> int:
    check_spec(json.loads((ROOT / "BENCHMARK.json").read_text()))
    for workload in workloads.WORKLOADS:
        check_output(workload, 0, 0, dict(run.END_TO_END))
        check_output(workload, 0, 1, dict(tracing.LAYER_METRICS))
        check_output(workload, 7, 0, dict(run.END_TO_END))
    check_gates(run.import_edgeavail())
    check_failing_run()
    check_bare_directory()
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
