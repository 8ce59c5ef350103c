"""edgeavail benchmark: one workload, timed or traced, with correctness gates.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload studies|ladder|oracle --seed N \\
        --seconds S --trace 0|1

The package is imported from ``src/`` of the checkout, never from an
installed copy.  ``--trace 0`` repeats the workload for about ``S`` seconds
and reports the end-to-end metrics as medians over the repetitions.
``--trace 1`` runs one untraced and one traced repetition and reports the
per-layer metrics and the tracing overhead.  The load is closed-loop: one
benchmark process calls the package and waits for each result; only the
studies' process pool (at most ``os.cpu_count()`` workers) runs beside it.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it
give every metric as ``name=value unit`` and the environment record.  The
full result (environment, repetitions, spans) goes to ``perfbench/out/``.
The exit code is 0 when every gate passed, 1 when one failed, and 2 when
the package cannot be imported from the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Name and unit, in the order of BENCHMARK.json.
END_TO_END = (
    ("setup_s", "s"),          # cold interpreter: import edgeavail + default_table()
    ("main_s", "s"),           # the workload's main path, median per repetition
    ("crosscheck_s", "s"),     # the path that validates it, median per repetition
    ("peak_rss_mb", "MB"),     # peak resident memory of the benchmark process
    ("ok_ratio", "ratio"),     # operations that passed every gate / attempted
)
# What main_s and crosscheck_s measure on each workload.
PATH_NAMES = {
    "studies": ("studies_s", "studies_serial_s"),
    "ladder": ("exact_s", "iterative_s"),
    "oracle": ("oracle_s", "oracle_exact_s"),
}

SETUP_SAMPLES = 7
SETUP_CHILD = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "import edgeavail\n"
    "edgeavail.default_table()\n"
    "print(time.perf_counter() - start)\n"
)


def import_edgeavail():
    """The package from this checkout's ``src/``; exit 2 if it is not there."""
    if not (SRC / "edgeavail" / "__init__.py").is_file():
        print(f"error: no edgeavail package under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import edgeavail
    if Path(edgeavail.__file__).resolve().parent != SRC / "edgeavail":
        print(f"error: imported edgeavail from {edgeavail.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)
    return edgeavail


def measure_setup() -> tuple[float, list]:
    """Median over fresh interpreters; one untimed run first fills __pycache__."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        done = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(SRC)],
                              capture_output=True, text=True, check=True, timeout=120)
        if i:
            samples.append(float(done.stdout.strip()))
    return statistics.median(samples), samples


def _read(path, default=""):
    try:
        return Path(path).read_text().strip()
    except OSError:
        return default


def _git_commit() -> str:
    head = _read(ROOT / ".git" / "HEAD")
    if head.startswith("ref: "):
        ref = head[5:]
        commit = _read(ROOT / ".git" / ref)
        if not commit:
            for line in _read(ROOT / ".git" / "packed-refs").splitlines():
                if line.endswith(" " + ref):
                    commit = line.split()[0]
        return commit or "unknown"
    return head or "unknown (not a git checkout)"


def _l3_size() -> str:
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        if _read(index / "level") == "3":
            return _read(index / "size", "unknown")
    return "unknown"


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "edgeavail").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:12]


def environment() -> dict:
    import numpy
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "l3_cache": _l3_size(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {k: os.environ.get(k, "unset")
                         for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "load": "closed loop, one benchmark process; studies pool at most cpu_count workers",
    }


def run_timed(workload, ledger, seconds):
    setup_s, setup_samples = measure_setup()
    samples = workloads.repeat(workload, ledger, tracing.NullTracer(), seconds)
    main = [m for m, _ in samples]
    check = [c for _, c in samples]
    metrics = {
        "setup_s": setup_s,
        "main_s": statistics.median(main),
        "crosscheck_s": statistics.median(check),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": (ledger.attempted - ledger.failed) / ledger.attempted,
    }
    raw = {"setup_s": setup_samples, "main_s": main, "crosscheck_s": check}
    return metrics, raw, None


def run_traced(ea, workload, ledger):
    untraced_s = workload.traced_rep(ledger, tracing.NullTracer())
    tracer = tracing.Tracer()
    with tracing.installed(ea, tracer):
        traced_s = workload.traced_rep(ledger, tracer)
    metrics = tracing.layer_metrics(tracer, untraced_s, traced_s)
    return metrics, {"untraced_s": untraced_s, "traced_s": traced_s}, tracer.dump()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes, for the benchmark's self-test only")
    args = parser.parse_args(argv)

    ea = import_edgeavail()
    workload = workloads.WORKLOADS[args.workload](ea, args.seed, smoke=args.smoke)
    ledger = workloads.Ledger()
    start = time.perf_counter()
    if args.trace:
        metrics, raw, spans = run_traced(ea, workload, ledger)
        units = dict(tracing.LAYER_METRICS)
    else:
        metrics, raw, spans = run_timed(workload, ledger, args.seconds)
        units = dict(END_TO_END)
    env = environment()
    correct = ledger.failed == 0
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "wall_s": time.perf_counter() - start,
        "correct": correct, "attempted": ledger.attempted, "failed": ledger.failed,
        "metrics": metrics, "path_names": dict(zip(("main_s", "crosscheck_s"),
                                                   PATH_NAMES[args.workload])),
        "raw": raw, "env": env, "spans": spans,
    }
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")

    aliases = {} if args.trace else record["path_names"]
    for key, value in metrics.items():
        alias = f" ({aliases[key]})" if key in aliases else ""
        print(f"{key}={value!r} {units[key]}{alias}")
    print("env " + json.dumps(env))
    print(json.dumps({
        "correct": correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {key: {"value": value, "unit": units[key]}
                    for key, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
