"""Property tests: the reference rotation kernel against dense matrix
exponentials, on random strings of up to four qubits, and ``run`` on
random configurations, which must exit with a documented code and, on
success, write seven well-formed files that replay from their summary.json."""

import json
import math
import pathlib
import tempfile
import xml.etree.ElementTree as ET

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from dsfermion import cli
from dsfermion.pauli import PauliString

from conftest import apply_pauli_rotation, dense_from_label, dense_state, random_state

# Derandomized and without an example database, so the suite stays deterministic.
PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)

# A Pauli label of a length in 1..4.
LABELS = st.integers(1, 4).flatmap(lambda n: st.text("IXYZ", min_size=n, max_size=n))


@PROPERTY
@given(LABELS, st.floats(-3.0, 3.0), st.integers(0, 2**32 - 1))
def test_rotation_matches_expm(label, theta, seed):
    n = len(label)
    vec = random_state(np.random.default_rng(seed), n)
    state = dense_state(n, vec.copy())
    apply_pauli_rotation(state, PauliString.from_label(label), theta)
    expected = expm(-1j * theta * dense_from_label(label)) @ vec
    assert np.max(np.abs(state.amplitudes - expected)) < 1e-12


def _no_constant(name):
    raise ValueError(f"summary.json holds the non-JSON constant {name}")


OUTPUTS = (
    "chiral.svg", "correlation.svg", "density.csv", "density_heatmap.svg",
    "observables.csv", "polarization.svg", "summary.json",
)


# h t_total <= 2 and m <= 2 keep the oracle's substeps, and so the suite's
# time, small; t_total reaches down to the subnormals.
@PROPERTY
@given(
    n_sites=st.sampled_from([4, 6, 8, 10]),
    start=st.integers(0, 1023),
    hubble=st.floats(0.0, 1.0),
    mass=st.floats(0.0, 2.0),
    t_total=st.floats(0.0, 2.0),
    steps=st.integers(1, 12),
    snapshot_every=st.integers(1, 5),
    time_sampling=st.sampled_from(["left", "midpoint"]),
    shots=st.sampled_from([0, 1, 7]),
    oracle=st.sampled_from(["on", "off"]),
)
# A fifth of a subnormal time axis, or its power of ten, underflowed to 0:
# the tick search raised after four of the seven files were written.
@example(8, 1, 0.1, 0.0, 2e-323, 1, 1, "midpoint", 0, "off")
@example(8, 1, 0.1, 0.0, 5e-324, 1, 1, "midpoint", 0, "off")
# The LU of a minor with entries below the smallest normal float overflowed
# 1/pivot: a RuntimeWarning and a NaN amplitude, now a usage error.
@example(4, 3, 0.0, 0.0, 2.225073858507e-311, 1, 1, "left", 0, "on")
def test_run_exits_cleanly_with_well_formed_outputs(
    n_sites, start, hubble, mass, t_total, steps, snapshot_every, time_sampling, shots, oracle
):
    flags = dict(
        n_sites=n_sites, initial_state_index=start % (1 << n_sites), hubble=hubble, mass=mass,
        t_total=t_total, trotter_steps=steps, snapshot_every=snapshot_every,
        time_sampling=time_sampling, shots=shots, oracle=oracle,
    )
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "run"
        argv = ["run", *(f"--{k}={v}" for k, v in flags.items()), f"--output_dir={out}"]
        code = cli.main(argv)
        assert code in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_INVARIANT)
        if code != cli.EXIT_OK:
            return
        assert sorted(p.name for p in out.iterdir()) == list(OUTPUTS)
        json.loads((out / "summary.json").read_text(), parse_constant=_no_constant)
        for svg in out.glob("*.svg"):
            ET.parse(svg)
        columns = []  # (header, cells) of both files' columns
        for name in ("density.csv", "observables.csv"):
            header, *rows = (out / name).read_text().splitlines()
            assert all(row.count(",") == header.count(",") for row in rows), name
            columns += zip(header.split(","), zip(*(row.split(",") for row in rows)))
        # The README's empty cells: the shot columns without shots, and p_ratio
        # where |p(0)| <= 1e-9; every other cell is a finite number.
        empty = {"n_shot", "n_shot_err", "C_err", "c_err"} if shots == 0 else set()
        if abs(float(dict(columns)["p_over_e"][0])) <= 1e-9:
            empty.add("p_ratio")
        for column, cells in columns:
            if column in empty:
                assert set(cells) == {""}, column
            else:
                assert all(math.isfinite(float(cell)) for cell in cells), column
        # The summary replays: run --config rewrites the same seven files.
        written = {name: (out / name).read_bytes() for name in OUTPUTS}
        assert cli.main(["run", f"--config={out / 'summary.json'}"]) == cli.EXIT_OK
        assert {name: (out / name).read_bytes() for name in OUTPUTS} == written
