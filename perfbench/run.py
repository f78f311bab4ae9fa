"""Benchmark for dsfermion.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads (see workloads.py and BENCHMARK.json): paper-oracle and
shots-sweep.  The workload seed is passed to the program as
``RunConfig.seed``.  All runs are closed-loop with one caller.

``--trace 0`` measures the end-to-end metrics:

* ``setup_s``: median over worker.SETUP_PROBES fresh interpreters of the
  time to import ``dsfermion.cli`` and build ``hamiltonian_parts(N)``,
  started between the timed passes so that they sample the whole run.
* ``wall_s``: median wall time of a workload pass after a warm-up pass,
  over as many passes as fit in ``--seconds``, in one fresh process.
* ``peak_rss_mb``: peak RSS of that process right after its warm-up pass.

``--trace 1`` prints the per-layer metrics of a traced pass instead
(tracing.py).  Both modes gate every operation's outputs (gate.py); an
operation is one ``run`` or one sweep point.  The human-readable lines come
first; the last stdout line is the JSON result.  The program is imported
from ``src`` of the checkout this script sits in; without it the benchmark
exits 2 without a result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import workloads
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, workloads.WORK)

TIME_LIMIT_S = 170.0
BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))

def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("DSFERMION_OUTPUT_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), HERE])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def deadline_left(start: float) -> float:
    left = TIME_LIMIT_S - (time.perf_counter() - start)
    if left <= 0:
        raise subprocess.TimeoutExpired("perfbench", TIME_LIMIT_S)
    return left


def run_worker(workload: str, seed: int, mode: str, env: dict, timeout: float, seconds: float | None = None) -> dict:
    """Run worker.py in a fresh process and return its JSON report."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload, "--seed", str(seed), "--mode", mode]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    # Its own process group, so that a timeout also stops the set-up probes it starts.
    with subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(lines[-1])


def src_lines() -> int:
    total = 0
    for d, _, files in os.walk(os.path.join(ROOT, "src", "dsfermion")):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(d, f), "rb") as fh:
                    total += sum(1 for _ in fh)
    return total


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "dsfermion", "cli.py")):
        print(f"perfbench: no dsfermion sources under {ROOT}/src", file=sys.stderr)
        return 2

    start = time.perf_counter()
    os.makedirs(WORK, exist_ok=True)
    env = child_env()
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)["per_layer" if args.trace else "end_to_end"]
        if args.trace:
            report = run_worker(args.workload, args.seed, "traced", env, deadline_left(start))
            values = report["per_layer"]
        else:
            report = run_worker(args.workload, args.seed, "timed", env, deadline_left(start), args.seconds)
            values = {
                "setup_s": statistics.median(report["setup_samples"]),
                "wall_s": statistics.median(report["wall_samples"]),
                "peak_rss_mb": report["peak_rss_mb"],
            }
        if set(values) != {m["name"] for m in spec}:
            raise RuntimeError(f"measured {sorted(values)}, BENCHMARK.json lists {[m['name'] for m in spec]}")
    except (subprocess.SubprocessError, RuntimeError, ValueError, OSError, KeyError) as exc:
        print(f"perfbench: {args.workload}: {exc}", file=sys.stderr)
        return 1

    expected = os.path.join(ROOT, "src", "dsfermion", "__init__.py")
    if os.path.realpath(report["dsfermion"]) != os.path.realpath(expected):
        print(f"perfbench: imported {report['dsfermion']}, not {expected}", file=sys.stderr)
        return 1

    attempted, failed = report["attempted"], report["failed"]
    provenance = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
        "machine": platform.machine(), **report["versions"],
        "git_commit": git_commit(), "src_lines": src_lines(),
        "wall_samples": report.get("wall_samples"), "setup_samples": report.get("setup_samples"),
    }
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}
    for problem in report["problems"]:
        print(f"FAIL {problem}", file=sys.stderr)
    for warning in report["warnings"]:
        print(f"WARN {warning}", file=sys.stderr)
    print("provenance " + json.dumps(provenance))
    print(f"{'failed_frac':32s} {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:.6g} {m['unit']}")
    result = {
        "correct": failed == 0 and report["consistent"],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    with open(os.path.join(WORK, f"result-{args.workload}-trace{args.trace}.json"), "w", encoding="utf-8") as fh:
        json.dump({"provenance": provenance, "problems": report["problems"], "warnings": report["warnings"],
                   **result}, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
