"""Hash every output of a fixed list of dsfermion commands, so that two
versions of the package can be shown to write the same bytes.

Run it from the repository root with the package to test on PYTHONPATH:

    PYTHONPATH=src python tools/output_digest.py

Each command runs as ``python -m dsfermion <args> --output_dir
out/digest/<name>`` in a subprocess that inherits PYTHONPATH; the path is
relative because the SVGs embed it.  The tool prints ``sha256  name/file``
for every output file and for the stdout of ``verify --max-n 10``, sorted,
and exits 1 if any command's exit code differs from the expected one.
Digests depend on the numpy and BLAS build, so compare them only between
runs on one machine.
"""

from __future__ import annotations

import hashlib
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path("out/digest")

# The shots-sweep benchmark workload, and a half-filled N=20 run whose 184756
# basis states spread each snapshot's shots over tens of thousands of outcomes.
SHOTS_SWEEP = (
    "sweep --n_sites 12 --hubble 0.1 --mass 1 --t_total 1 --snapshot_every 1 --shots 200000"
    " --initial_state_index 1 --oracle off --parameter trotter_steps --values 10,20,40,80 --seed 7"
)
BLAS_N20 = (
    "run --n_sites 20 --initial_state_index 349525 --mass 1 --trotter_steps 3 --shots 200000"
    " --oracle off --seed 7"
)

# (name, arguments, expected exit code)
COMMANDS = (
    ("paper-m0", "run --preset paper-m0", 0),
    ("paper-m1", "run --preset paper-m1", 0),
    ("paper-m1-shots50000", "run --preset paper-m1 --shots 50000", 0),
    ("n8-exact", "run --n_sites 8 --shots 0 --oracle off", 0),
    (
        "n8-filled",
        "run --n_sites 8 --initial_state_index 0 --shots 100 --oracle off --trotter_steps 4",
        0,
    ),
    ("n6-empty", "run --n_sites 6 --initial_state_index 63 --shots 100 --trotter_steps 4", 0),
    ("n12-half", "run --n_sites 12 --initial_state_index 1365 --shots 5000 --mass 1", 0),
    (
        "n10-half",
        "run --n_sites 10 --initial_state_index 341 --shots 20000 --mass 1 --hubble 0.5",
        0,
    ),
    # The last snapshot gap (step 6 to 7) is shorter than the others.
    (
        "n8-uneven",
        "run --n_sites 8 --trotter_steps 7 --snapshot_every 3 --time_sampling left --shots 1000"
        " --oracle off",
        0,
    ),
    # One shot per snapshot: every standard error is 0, so no error bar is drawn.
    ("n8-one-shot", "run --n_sites 8 --shots 1", 0),
    ("shots-sweep", SHOTS_SWEEP, 0),
    ("n20-blas", BLAS_N20, 0),
    # Point hubble=1000 fails validation, so the sweep exits 1.
    (
        "hubble-sweep",
        "sweep --n_sites 8 --parameter hubble --values 0.1,1000 --shots 10 --oracle off",
        1,
    ),
)


def _dsfermion(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "dsfermion", *args], capture_output=True)


def main() -> int:
    digests, failed = {}, False
    for name, args, expected in COMMANDS:
        out = ROOT / name
        shutil.rmtree(out, ignore_errors=True)
        done = _dsfermion([*args.split(), "--output_dir", str(out)])
        if done.returncode != expected:
            failed = True
            print(f"{name}: exit {done.returncode}, expected {expected}", file=sys.stderr)
            sys.stderr.write(done.stderr.decode(errors="replace"))
        for path in out.rglob("*"):
            if path.is_file():
                digests[path.relative_to(ROOT).as_posix()] = hashlib.sha256(path.read_bytes())
    done = _dsfermion(["verify", "--max-n", "10"])
    if done.returncode != 0:
        failed = True
        print(f"verify: exit {done.returncode}, expected 0", file=sys.stderr)
    digests["verify/stdout"] = hashlib.sha256(done.stdout)
    for key in sorted(digests):
        print(f"{digests[key].hexdigest()}  {key}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
