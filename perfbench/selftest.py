"""Self-test of the correctness gate: it must pass the program and fail a wrong one.

Usage, from the root of a checkout:

    python3 perfbench/selftest.py

For every workload it runs one gated pass of the checkout's program, which
must have no failed operation, and one of a copy of ``src/dsfermion`` under
``.perfbench_work/`` whose boundary-string sign is flipped, in which every
operation must fail.  The checkout's own sources are not modified.  Exits 0
when both hold for every workload.
"""

from __future__ import annotations

import glob
import os
import shutil
import sys

import run
from workloads import WORKLOADS

BOUNDARY_SIGN = "boundary_coeff = -((-1) ** (n_sites // 2)) / 2.0"
FLIPPED_SIGN = "boundary_coeff = ((-1) ** (n_sites // 2)) / 2.0"
SEED = 7


def make_mutant(dest: str) -> int:
    """Copy the package to ``dest`` with the boundary sign flipped; returns the edit count."""
    shutil.rmtree(dest, ignore_errors=True)
    shutil.copytree(os.path.join(run.ROOT, "src", "dsfermion"), os.path.join(dest, "dsfermion"))
    edits = 0
    for path in glob.glob(os.path.join(dest, "dsfermion", "*.py")):
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        if BOUNDARY_SIGN in text:
            edits += text.count(BOUNDARY_SIGN)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text.replace(BOUNDARY_SIGN, FLIPPED_SIGN))
    return edits


def main() -> int:
    os.makedirs(run.WORK, exist_ok=True)
    mutant = os.path.join(run.WORK, "mutant")
    edits = make_mutant(mutant)
    if edits == 0:
        print("selftest: boundary-sign line not found; update BOUNDARY_SIGN", file=sys.stderr)
        return 1
    env = run.child_env()
    mutant_env = dict(env, PYTHONPATH=os.pathsep.join([mutant, run.HERE]))
    ok = True
    for name in WORKLOADS:
        for label, child_env, want_all_failed in (("program", env, False), ("flipped sign", mutant_env, True)):
            report = run.run_worker(name, SEED, "gate", child_env, run.TIME_LIMIT_S)
            attempted, failed = report["attempted"], report["failed"]
            good = failed == attempted if want_all_failed else failed == 0
            ok &= good and attempted > 0
            print(f"{'ok  ' if good else 'BAD '} {name:13s} {label:13s} {failed}/{attempted} failed"
                  f"  {report['dsfermion']}")
            if want_all_failed and report["problems"]:
                print(f"     first problem: {report['problems'][0]}")
    shutil.rmtree(mutant)
    print(f"selftest {'passed' if ok else 'FAILED'} ({edits} sign lines flipped)")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
