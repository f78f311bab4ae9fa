"""The benchmark's workloads: the CLI calls each one makes, built from a seed.

The workload seed becomes ``RunConfig.seed`` (``--seed``) and nothing else;
every other value is fixed here, so the program sees only the generated
command line.  Each output directory a call writes is one *point*: one
``run`` or one sweep point, the unit counted as an operation.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

# The benchmark's working directory, relative to the checkout (git-ignored).
WORK = ".perfbench_work"
# Output root of a pass.  The plots embed the output directory in their
# metadata, so the byte-identity hashes in reference.json hold only for this
# exact path.
OUT_ROOT = os.path.join(WORK, "out")


@dataclass(frozen=True)
class Call:
    """One ``dsfermion.cli.main`` invocation."""

    args: tuple[str, ...]
    out_name: str  # output_dir, relative to the pass's output root
    points: tuple[str, ...]  # point directories, relative to the pass's output root

    def argv(self, seed: int) -> list[str]:
        return [*self.args, "--seed", str(seed), "--output_dir", os.path.join(OUT_ROOT, self.out_name)]


@dataclass(frozen=True)
class Workload:
    name: str
    n_sites: int
    oracle: bool
    calls: tuple[Call, ...]

    @property
    def points(self) -> list[str]:
        return [p for call in self.calls for p in call.points]


def _run(name: str, *args: str) -> Call:
    return Call(("run", *args), name, (name,))


SWEEP_STEPS = (10, 20, 40, 80)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paper-oracle",
            n_sites=8,
            oracle=True,
            calls=(_run("paper-m0", "--preset", "paper-m0"), _run("paper-m1", "--preset", "paper-m1")),
        ),
        Workload(
            name="shots-sweep",
            n_sites=12,
            oracle=False,
            calls=(
                Call(
                    (
                        "sweep",
                        "--n_sites", "12", "--hubble", "0.1", "--mass", "1", "--t_total", "1",
                        "--snapshot_every", "1", "--shots", "200000", "--initial_state_index", "1",
                        "--oracle", "off",
                        "--parameter", "trotter_steps", "--values", ",".join(map(str, SWEEP_STEPS)),
                    ),
                    "sweep",
                    tuple(f"sweep/trotter_steps={s}" for s in SWEEP_STEPS),
                ),
            ),
        ),
    )
}
