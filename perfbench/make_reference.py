"""Record reference.json: the exact outputs of every workload point.

Run from the root of a checkout of the commit whose outputs are the
reference (the seed commit of the benchmark):

    PYTHONPATH=src python3 perfbench/make_reference.py

It runs each workload's calls once at REF_SEED and stores, per point, the
seed-independent columns the gate compares (exact observables, exact
density, the oracle's Trotter-vs-oracle distance) and the sha256 of each
CSV and SVG output, which the traced pass compares for byte identity.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import dsfermion.cli
import gate
from worker import REF_SEED
from workloads import OUT_ROOT, WORKLOADS


def main() -> int:
    reference = {}
    for workload in WORKLOADS.values():
        shutil.rmtree(OUT_ROOT, ignore_errors=True)
        for call in workload.calls:
            code = dsfermion.cli.main(call.argv(REF_SEED))
            if code != 0:
                print(f"{workload.name}: {call.args} exited {code}", file=sys.stderr)
                return 1
        for point in workload.points:
            point_dir = os.path.join(OUT_ROOT, point)
            reference[point] = {**gate.exact_columns(point_dir), "sha256": gate.output_hashes(point_dir)}
    shutil.rmtree(OUT_ROOT)
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
