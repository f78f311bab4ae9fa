"""One fresh process that runs passes of a workload and reports on them.

Started by ``run.py`` (and ``selftest.py``) with ``PYTHONPATH`` pointing at
the checkout's ``src`` and the BLAS thread count set.  A pass is every CLI
call of the workload, run in-process through ``dsfermion.cli.main``; its
wall time is the sum of those calls.  Every point of every pass goes
through the correctness gate after the pass, outside the timed region, and
the pass's output directory is removed afterwards.

Modes:

* ``timed``: one untimed warm-up pass (peak RSS is read right after it,
  so it is the peak of a fresh process that ran one pass), then passes
  until ``--seconds`` would be exceeded.  Between the passes it starts
  SETUP_PROBES fresh interpreters, spread evenly over those seconds, that
  each time the set-up (``setup_s``).
* ``traced``: a warm-up pass at REF_SEED whose CSV and SVG outputs are
  hashed against the reference, then two rounds of an untraced and a
  traced pass; the two traced passes' exact-repeat counters must agree,
  and each traced pass's self times must add up to its wall time.  The
  spans go to ``.perfbench_work/spans-<workload>.jsonl``.
* ``gate``: one pass, gated, nothing timed.

Outputs are written under ``workloads.OUT_ROOT``, relative to the working
directory, which must be the checkout's root.

The last stdout line is a JSON report.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext

import dsfermion
import dsfermion.cli
import gate
import tracing
from workloads import OUT_ROOT, WORK, WORKLOADS

REF_SEED = 1
SETUP_PROBES = 9
SETUP_PROBE = """
import time
t0 = time.perf_counter()
import dsfermion.cli
from dsfermion.model import hamiltonian_parts
hamiltonian_parts({n})
print(time.perf_counter() - t0)
"""
MAX_PROBLEMS = 20
# Largest share of a traced pass's wall time by which its self times may
# differ from it; only the bench.op spans' own entry and exit lie outside.
SELF_SUM_TOL = 1e-3


class Bench:
    def __init__(self, workload, reference: dict):
        self.workload = workload
        self.reference = reference
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0

    def run_pass(self, seed: int, tracer: tracing.Tracer | None = None, hashes: dict | None = None) -> dict:
        """Run, time and gate one pass; returns its wall time, the process's
        peak RSS when its calls ended, and the bytes its calls wrote."""
        shutil.rmtree(OUT_ROOT, ignore_errors=True)
        os.makedirs(OUT_ROOT)
        gc.collect()
        main = dsfermion.cli.main
        results = []
        wall = 0.0
        for op, call in enumerate(self.workload.calls):
            argv = call.argv(seed)
            if tracer is not None:
                tracer.op = op
            error = None
            t0 = time.perf_counter()
            with tracer.span("bench.op") if tracer is not None else nullcontext():
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
                except Exception as exc:  # a crash is a failed operation, not a benchmark error
                    traceback.print_exc()
                    code, error = None, f"{type(exc).__name__}: {exc}"
            wall += time.perf_counter() - t0
            results.append((call, code, error))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self._gate(seed, results, hashes)
        written = sum(
            os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(OUT_ROOT) for f in files
        )
        shutil.rmtree(OUT_ROOT)
        return {"wall": wall, "rss_mb": rss_mb, "bytes": written}

    def _gate(self, seed: int, results, hashes: dict | None) -> None:
        for call, code, error in results:
            # A sweep's exit code is the worst of its points'; its manifest
            # holds each point's own, so one failed point fails only itself.
            point_codes = None
            if call.args[0] == "sweep" and error is None:
                point_codes = gate.check_sweep_index(os.path.join(OUT_ROOT, call.out_name), len(call.points))
                if point_codes is None and code == 0:
                    error = "sweep exited 0 without a readable sweep_index.json"
            for i, point in enumerate(call.points):
                self.attempted += 1
                if error is not None:
                    found = [error]
                elif point_codes is not None and point_codes[i]:
                    found = [point_codes[i]]
                elif point_codes is None and code != 0:
                    found = [f"exit code {code}"]
                else:
                    point_dir = os.path.join(OUT_ROOT, point)
                    found = gate.check_point(point_dir, self.reference[point], self.workload.oracle)
                    if hashes is not None and not found:
                        hashes[point] = gate.output_hashes(point_dir)
                if found:
                    self.failed += 1
                    self.problems.extend(f"{self.workload.name} seed {seed} {point}: {p}" for p in found)


def _versions() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def setup_probe(n_sites: int) -> float:
    """Set-up time of a fresh interpreter, which inherits this process's environment."""
    out = subprocess.run([sys.executable, "-c", SETUP_PROBE.format(n=n_sites)],
                         capture_output=True, text=True, check=True, timeout=60)
    return float(out.stdout.split()[-1])


def timed(bench: Bench, seed: int, seconds: float) -> dict:
    rss = bench.run_pass(seed)["rss_mb"]
    setup_probe(bench.workload.n_sites)  # dropped: it may compile bytecode
    samples: list[float] = []
    setup: list[float] = []
    start = time.perf_counter()
    while True:
        samples.append(bench.run_pass(seed)["wall"])
        elapsed = time.perf_counter() - start
        done = elapsed + statistics.median(samples) > seconds
        while len(setup) < (SETUP_PROBES if done else SETUP_PROBES * elapsed / seconds):
            setup.append(setup_probe(bench.workload.n_sites))
        if done:
            break
    return {"wall_samples": samples, "setup_samples": setup, "peak_rss_mb": rss}


def traced(bench: Bench, seed: int) -> dict:
    hashes: dict = {}
    bench.run_pass(REF_SEED, hashes=hashes)
    ref_hashes = [(p, f, h) for p in bench.workload.points for f, h in bench.reference[p]["sha256"].items()]
    identical = sum(hashes.get(p, {}).get(f) == h for p, f, h in ref_hashes)

    untraced = []
    passes = []
    all_spans = []
    consistent = True
    for _ in range(2):  # alternate, so drift in machine speed hits both kinds alike
        untraced.append(bench.run_pass(seed)["wall"])
        tracer = tracing.Tracer()
        tracing.install(tracer, dsfermion)
        try:
            result = bench.run_pass(seed, tracer=tracer)
        finally:
            tracer.unwrap()
        metrics = tracing.pass_metrics(tracer.spans)
        self_sum = sum(metrics[k] for k in tracing.SELF_TIME_METRICS)
        if abs(self_sum - result["wall"]) > SELF_SUM_TOL * result["wall"]:
            consistent = False
            bench.problems.append(f"self times sum to {self_sum} s, traced pass took {result['wall']} s")
        metrics["trace.wall_s"] = result["wall"]
        metrics["trace.spans"] = len(tracer.spans)
        metrics["cli.bytes_written"] = result["bytes"]
        passes.append(metrics)
        all_spans.append(tracer.spans)

    differ = [f"{k} {passes[0][k]} vs {passes[1][k]}" for k in tracing.EXACT_REPEAT if passes[0][k] != passes[1][k]]
    if differ:
        consistent = False
        bench.problems.append("exact-repeat counters differ between traced passes: " + ", ".join(differ))
    per_layer = {k: statistics.mean(p[k] for p in passes) for k in passes[0]}
    span_count = per_layer.pop("trace.spans")
    per_layer.update(
        {
            "trace.untraced_wall_s": statistics.mean(untraced),
            "trace.overhead_s": span_count * tracing.wrapper_cost(),
            "trace.missing_targets": len(tracer.missing),
            "state.amp_bytes": (1 << bench.workload.n_sites) * 16,
            "cli.byte_identical": identical / len(ref_hashes),
        }
    )
    with open(os.path.join(WORK, f"spans-{bench.workload.name}.jsonl"), "w", encoding="utf-8") as fh:
        for i, spans in enumerate(all_spans):
            for s in spans:
                fh.write(json.dumps({"pass": i, "name": s[0], "start": s[1], "end": s[2],
                                     "parent": s[3], "op": s[4], "count": s[6]}) + "\n")
    return {
        "per_layer": per_layer,
        "consistent": consistent,
        "warnings": [f"no {target} to trace; its layer reads 0" for target in tracer.missing],
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("timed", "traced", "gate"), required=True)
    parser.add_argument("--seconds", type=float, help="measuring time of the timed mode")
    args = parser.parse_args()
    if (args.mode == "timed") != (args.seconds is not None):
        parser.error("--seconds is required by the timed mode and taken by no other")

    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    bench = Bench(WORKLOADS[args.workload], reference)
    report = {"dsfermion": dsfermion.__file__, "versions": _versions(), "consistent": True, "warnings": []}
    if args.mode == "timed":
        report.update(timed(bench, args.seed, args.seconds))
    elif args.mode == "traced":
        report.update(traced(bench, args.seed))
    else:
        bench.run_pass(args.seed)
    report.update(attempted=bench.attempted, failed=bench.failed, problems=bench.problems[:MAX_PROBLEMS])
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
