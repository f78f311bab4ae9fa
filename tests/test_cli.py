"""CLI subcommands, config handling, output files and exit codes."""

import dataclasses
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import threading
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import dsfermion.state as state_module
from dsfermion import cli, evolve, svg
from dsfermion.errors import SHOT_LIMIT, NormDriftError, ResourceLimitError
from dsfermion.observables import ObservableRecord, ShotErrors
from dsfermion.pauli import PauliString, PauliSum

from conftest import (
    csv_line_reference,
    json_reference,
    line_chart_reference,
    record_keys,
    viridis_reference,
)


def fast_config(tmp_path, **overrides):
    """A small, oracle-off configuration for quick end-to-end runs."""
    base = dict(
        n_sites=8,
        hubble=0.1,
        mass=0.0,
        t_total=1.0,
        trotter_steps=10,
        shots=200,
        seed=3,
        initial_state_index=1,
        oracle="off",
        output_dir=str(tmp_path / "run"),
    )
    base.update(overrides)
    return cli.RunConfig(**base)


RUN_OUTPUTS = (
    "density.csv",
    "observables.csv",
    "summary.json",
    "density_heatmap.svg",
    "correlation.svg",
    "polarization.svg",
    "chiral.svg",
)


def read_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        header, *rows = fh.read().strip().splitlines()
    return header.split(","), [row.split(",") for row in rows]


class TestPresets:
    @pytest.mark.parametrize("mass_choice", [0, 1])
    def test_paper_preset_values(self, mass_choice):
        # Every field, so that a changed RunConfig default cannot move a preset.
        assert dataclasses.asdict(cli.preset_paper(mass_choice)) == {
            "n_sites": 8,
            "hubble": 0.1,
            "mass": float(mass_choice),
            "t_total": 1.0,
            "trotter_steps": 10,
            "time_sampling": "midpoint",
            "shots": 10000,
            "seed": 1,
            "initial_state_index": 1,
            "snapshot_every": 1,
            "oracle": "on",
            "oracle_substeps_start": 256,
            "output_dir": os.path.join(cli._default_output_dir(), f"paper_m{mass_choice}"),
        }

    def test_preset_subcommand_prints_config(self, capsys):
        assert cli.main(["preset", "paper-m1"]) == 0
        out = capsys.readouterr().out
        parsed = cli.config_from_mapping(cli.parse_config_text(out))
        assert parsed.mass == 1.0
        assert parsed.n_sites == 8

    def test_bad_mass_choice(self):
        with pytest.raises(ValueError):
            cli.preset_paper(2)


class TestConfigFiles:
    def test_round_trip(self, tmp_path):
        config = fast_config(tmp_path, mass=1.0, seed=77)
        path = tmp_path / "run.cfg"
        path.write_text(cli.config_to_text(config))
        assert cli.load_config(str(path)) == config

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\n\nn_sites = 6\nmass = 1.0\n")
        config = cli.load_config(str(path))
        assert config.n_sites == 6
        assert config.mass == 1.0

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("n_qubits = 8\n")
        with pytest.raises(ValueError):
            cli.load_config(str(path))

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("n_sites 8\n")
        with pytest.raises(ValueError):
            cli.load_config(str(path))

    def test_json_values_convert_from_text(self, tmp_path, capsys):
        # A JSON config value converts through its text, as a file or flag
        # value does: 10.9 is no int (int(10.9) would run 10 steps), and null
        # and a list are usage errors, not tracebacks.
        for field in ("trotter_steps", "shots"):
            for value in (10.9, None, [1]):
                out = tmp_path / "out"
                path = tmp_path / "summary.json"
                path.write_text(json.dumps({"config": {field: value, "output_dir": str(out)}}))
                assert cli.main(["run", "--config", str(path)]) == cli.EXIT_USAGE, (field, value)
                assert "Traceback" not in capsys.readouterr().err
                assert not out.exists(), (field, value)

    def test_json_config_must_be_an_object(self, tmp_path, capsys):
        # A summary.json's "config" that is not an object used to escape as a
        # TypeError or AttributeError traceback.
        out = tmp_path / "out"
        for value in (None, ["n_sites"], 5):
            path = tmp_path / "summary.json"
            path.write_text(json.dumps({"config": value}))
            argv = ["run", "--config", str(path), "--output_dir", str(out)]
            assert cli.main(argv) == cli.EXIT_USAGE, value
            err = capsys.readouterr().err
            assert err.startswith("dsfermion:") and "Traceback" not in err, value
            assert not out.exists(), value

    def test_preset_and_config_are_exclusive(self, tmp_path, capsys):
        # A preset used to win silently over a config file, read or not.
        for command in (["run"], ["sweep", "--parameter", "shots", "--values", "10"]):
            out = tmp_path / command[0]
            argv = [*command, "--preset", "paper-m1", "--config", str(tmp_path / "none.cfg")]
            with pytest.raises(SystemExit) as info:
                cli.main([*argv, "--shots", "0", "--oracle", "off", "--output_dir", str(out)])
            assert info.value.code == cli.EXIT_USAGE, command
            assert "not allowed with argument" in capsys.readouterr().err
            assert not out.exists(), command

    def test_flag_overrides_file(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text(cli.config_to_text(fast_config(tmp_path)))
        out_dir = tmp_path / "other"
        code = cli.main(
            ["run", "--config", str(path), "--shots", "0", "--output_dir", str(out_dir)]
        )
        assert code == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["config"]["shots"] == 0
        assert summary["config"]["output_dir"] == str(out_dir)


class TestRun:
    def test_writes_all_outputs(self, tmp_path):
        config = fast_config(tmp_path)
        assert cli.run(config) == 0
        out = tmp_path / "run"
        for name in RUN_OUTPUTS:
            assert (out / name).exists(), name

    def test_drift_past_tolerance_exits_after_writing(self, tmp_path, monkeypatch, capsys):
        # A norm drift of 1e-9 passes the per-step limit of 1e-8 but not the
        # run's 1e-10: every output is written, then the run exits 3.
        def drifting(*args, **kwargs):
            trajectory = evolve.trotter_evolve(*args, **kwargs)
            trajectory.records[3] = dataclasses.replace(trajectory.records[3], norm=1 + 1e-9)
            return trajectory

        monkeypatch.setattr(cli, "trotter_evolve", drifting)
        assert cli.run(fast_config(tmp_path)) == cli.EXIT_INVARIANT
        assert sorted(os.listdir(tmp_path / "run")) == sorted(RUN_OUTPUTS)
        err = capsys.readouterr().err
        assert err.startswith("invariant violation: charge drift ")
        assert "norm drift 1.000e-09 (tol 1e-10)" in err

    def test_tick_labels_tell_close_ticks_apart(self, tmp_path, monkeypatch):
        # At h = 1e-10 the filled start's C and p(t)/p(0) span ~1e-10 around
        # 1, so 4 significant digits labelled all five y ticks "1", and both
        # ends of the colour bar too.  At h = 1e-12 the p(t)/p(0) tick step,
        # 2.5e-13, fell below the 12 decimals each tick was rounded to, so
        # its five ticks sat at two heights.  Each label now reads back
        # within half a tick step of its tick.
        ticks = []
        nice_ticks = svg._nice_ticks

        def recorded(lo, hi):
            ticks.append(nice_ticks(lo, hi))
            return ticks[-1]

        monkeypatch.setattr(svg, "_nice_ticks", recorded)
        for hubble in ("1e-10", "1e-12"):
            ticks.clear()
            out = tmp_path / hubble
            argv = f"run --n_sites 8 --initial_state_index 0 --hubble {hubble} --mass 0"
            argv += f" --shots 200 --oracle off --trotter_steps 4 --output_dir {out}"
            assert cli.main(argv.split()) == cli.EXIT_OK
            # Each line chart asks for its x ticks, then its y ticks.
            for index, name in ((1, "correlation.svg"), (3, "polarization.svg")):
                labels = [
                    node.text
                    for node in ET.parse(out / name).getroot()
                    if node.get("x") == "63.00" and node.get("text-anchor") == "end"
                ]
                values = ticks[index]
                step = values[1] - values[0]
                assert len(values) == 5 and len(set(labels)) == len(labels) == 5, (name, labels)
                for label, value in zip(labels, values):
                    assert abs(float(label) - value) < step / 2, (hubble, name, label, value)
            heat = ET.parse(out / "density_heatmap.svg").getroot()
            low, high = [node.text for node in heat if node.get("font-size") == "10"]
            assert float(low) < float(high)
        # The same rounding put all five ticks of [1e-5, 1e-5 + 1e-14] at 1e-5.
        values = svg._nice_ticks(1e-5, 1e-5 + 1e-14)
        assert len(values) == 5
        assert all(abs(b - a - 2e-15) < 1e-20 for a, b in zip(values, values[1:])), values

    def test_flat_density_heatmap_is_well_formed(self, tmp_path):
        # With h = 0 and m = 0 the filled start has n(x, t) = 1 everywhere, so
        # the colour range is empty and the heatmap spans [1, 2] instead.
        argv = "run --n_sites 8 --initial_state_index 0 --hubble 0 --mass 0 --shots 0"
        argv += " --oracle off --output_dir " + str(tmp_path)
        assert cli.main(argv.split()) == cli.EXIT_OK
        root = ET.parse(tmp_path / "density_heatmap.svg").getroot()
        cells = [node for node in root if node.get("height") == "42.50"]
        assert len(cells) == 11 * 8
        assert {node.get("fill") for node in cells} == {viridis_reference(0.0)}
        assert [node.text for node in root if node.get("font-size") == "10"] == ["1", "2"]

    def test_chart_flat_up_to_rounding_finishes(self, tmp_path):
        # At h = 3e-16 the filled start's p(t)/p(0) spans ~2e-16 around 1, so a
        # tick step from that span falls below half an ulp of 1; the tick loop
        # then never ended and its list grew until memory ran out.
        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

        env = dict(
            os.environ,
            PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)),
            OPENBLAS_NUM_THREADS="1",
        )
        args = "run --n_sites 8 --initial_state_index 0 --hubble 3e-16 --shots 0 --oracle off"
        done = subprocess.run(
            [sys.executable, "-m", "dsfermion", *args.split(), "--output_dir", str(tmp_path)],
            env=env, preexec_fn=limit_memory, capture_output=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert sorted(p.name for p in tmp_path.glob("*.svg")) == [
            "chiral.svg", "correlation.svg", "density_heatmap.svg", "polarization.svg"
        ]

    @pytest.mark.parametrize("t_total", ["5e-324", "2e-323", "5e-323"])
    def test_subnormal_t_total_writes_every_file(self, tmp_path, t_total):
        # A fifth of the time axis, or its power of ten, underflows to 0, so
        # no round tick step exists: a traceback or "math domain error" came
        # after the first four files.  The axis now gets its two ends.
        argv = f"run --t_total {t_total} --trotter_steps 1 --shots 0 --oracle off"
        assert cli.main([*argv.split(), "--output_dir", str(tmp_path)]) == cli.EXIT_OK
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "chiral.svg", "correlation.svg", "density.csv", "density_heatmap.svg",
            "observables.csv", "polarization.svg", "summary.json",
        ]

    def test_csv_row_counts(self, tmp_path):
        config = fast_config(tmp_path)
        cli.run(config)
        out = tmp_path / "run"
        snapshots = config.trotter_steps + 1
        _, density_rows = read_csv(out / "density.csv")
        assert len(density_rows) == snapshots * config.n_sites
        _, obs_rows = read_csv(out / "observables.csv")
        assert len(obs_rows) == snapshots

    def test_shot_columns_empty_when_exact_only(self, tmp_path):
        config = fast_config(tmp_path, shots=0)
        cli.run(config)
        header, rows = read_csv(tmp_path / "run" / "density.csv")
        assert header == ["t", "x", "n_exact", "n_shot", "n_shot_err"]
        assert all(row[3] == "" and row[4] == "" for row in rows)
        header, rows = read_csv(tmp_path / "run" / "observables.csv")
        c_err = header.index("C_err")
        assert all(row[c_err] == "" for row in rows)

    def test_eigenstate_run_has_constant_columns(self, tmp_path):
        config = fast_config(tmp_path, initial_state_index=0, shots=0)
        cli.run(config)
        header, rows = read_csv(tmp_path / "run" / "observables.csv")
        for column in ("C", "c", "energy", "total_sz"):
            idx = header.index(column)
            values = [float(row[idx]) for row in rows]
            assert max(values) - min(values) < 1e-10

    def test_p_ratio_defined_for_paper_initial_state(self, tmp_path):
        config = fast_config(tmp_path, shots=0)
        cli.run(config)
        header, rows = read_csv(tmp_path / "run" / "observables.csv")
        idx = header.index("p_ratio")
        assert rows[0][idx] == "1"

    def test_p_ratio_empty_when_p0_vanishes(self, tmp_path):
        # Index 254 = only site 0 occupied, so p(0) = 0 and the ratio column
        # is marked not-applicable.
        config = fast_config(tmp_path, shots=0, initial_state_index=254)
        cli.run(config)
        header, rows = read_csv(tmp_path / "run" / "observables.csv")
        idx = header.index("p_ratio")
        assert all(row[idx] == "" for row in rows)
        p_idx = header.index("p_over_e")
        assert float(rows[0][p_idx]) == 0.0

    def test_byte_identical_reruns(self, tmp_path):
        config = fast_config(tmp_path, shots=500)
        cli.run(config)
        out = tmp_path / "run"
        first = {name: (out / name).read_bytes() for name in os.listdir(out)}
        cli.run(config)
        second = {name: (out / name).read_bytes() for name in os.listdir(out)}
        assert first == second

    def test_rerun_from_summary_json(self, tmp_path):
        config = fast_config(tmp_path, shots=300)
        cli.run(config)
        out = tmp_path / "run"
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        assert sorted(before) == sorted(RUN_OUTPUTS)
        code = cli.main(["run", "--config", str(out / "summary.json")])
        assert code == 0
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_oracle_report_in_summary(self, tmp_path):
        config = fast_config(tmp_path, oracle="on", shots=0)
        assert cli.run(config) == 0
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        oracle = summary["invariants"]["oracle"]
        assert oracle["convergence_delta"] < 1e-10
        assert 0 < oracle["state_distance"] < 1.0

    def test_seed_changes_shot_columns(self, tmp_path):
        config_a = fast_config(tmp_path, output_dir=str(tmp_path / "a"), seed=1)
        config_b = fast_config(tmp_path, output_dir=str(tmp_path / "b"), seed=2)
        cli.run(config_a)
        cli.run(config_b)
        rows_a = (tmp_path / "a" / "density.csv").read_text()
        rows_b = (tmp_path / "b" / "density.csv").read_text()
        assert rows_a != rows_b

    def test_invalid_config_is_usage_error(self, tmp_path, monkeypatch):
        # Each bad field is rejected by RunConfig.validate, or by the
        # argument checks that open trotter_evolve, before the evolution
        # starts and before any output directory is created.
        def no_evolution(*args, **kwargs):
            raise AssertionError("the evolution started")

        monkeypatch.setattr(evolve, "one_body_parts", no_evolution)
        # Half filling at N = 24 is valid with shots 0 and the oracle off,
        # but a readout for the oracle or for shots would gather C(24, 12) *
        # 12^2 = 389M minor entries, past the readout guard; n_sites=64 is
        # beyond the int64 basis index.  Starts of 65536 and 131073 steps
        # double past the 2^16 step budget.  The seed keys a uint64 Philox
        # stream, and with the default 10 steps the last snapshot samples
        # with seed + 10.  Sweep points are 2^32 seeds apart, so a run takes
        # fewer than 2^32 steps.  Every shot sum stays below 2^50 up to 2^28 shots.
        # The oracle is "on" or "off", and t_total is positive and finite.
        half_filled_24 = ("--n_sites", "24", "--initial_state_index", str(0x555555))
        for *flags, oracle in (
            ("--n_sites", "7", "off"),
            (*half_filled_24, "--shots", "0", "on"),
            (*half_filled_24, "--shots", "10", "off"),
            ("--n_sites", "64", "off"),
            ("--seed", "-1", "off"),
            ("--seed", str(2**64), "off"),
            ("--seed", str(2**64 - 10), "off"),
            ("--trotter_steps", str(2**32), "off"),
            ("--shots", str(2**28 + 1), "off"),
            ("--oracle_substeps_start", "65536", "on"),
            ("--oracle_substeps_start", "131073", "on"),
            ("--initial_state_index", "256", "off"),
            ("--snapshot_every", "0", "off"),
            ("--time_sampling", "right", "off"),
            ("--n_sites", "8", "maybe"),
            ("--t_total", "0", "off"),
            ("--t_total", "-1", "off"),
            ("--t_total", "nan", "off"),
            ("--t_total", "inf", "off"),
        ):
            out = tmp_path / "_".join(s.strip("-") for s in flags)
            argv = ["run", *flags, "--oracle", oracle, "--output_dir", str(out)]
            assert cli.main(argv) == cli.EXIT_USAGE, flags
            assert not out.exists(), flags
        cli.RunConfig(seed=2**64 - 11).validate()
        cli.RunConfig(shots=2**28).validate()
        # Without a readout N = 24 passes, and C(22, 11) * 11^2 = 85M entries fit.
        cli.RunConfig(n_sites=24, initial_state_index=0x555555, shots=0, oracle="off").validate()
        cli.RunConfig(n_sites=22, initial_state_index=0x155555, oracle="on").validate()

    def test_shot_limit_runs(self, tmp_path):
        # The sampler's cost does not grow with the shot count, so the most
        # shots a run takes sample as fast as a few.  Every outcome holds
        # the start's one hole, so the shot n_total has no spread.
        config = fast_config(tmp_path, n_sites=4, trotter_steps=4, shots=SHOT_LIMIT)
        assert cli.run(config) == cli.EXIT_OK
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        rows = (tmp_path / "run" / "observables.csv").read_text().splitlines()[1:]
        exact = [float(row.split(",")[1]) for row in rows]
        shots = summary["shot_records"]
        assert len(shots) == len(exact) == 5
        for shot, n_total in zip(shots, exact):
            assert shot["n_total"] == pytest.approx(n_total, rel=1e-12, abs=0)
            assert shot["shot_errors"]["n_total"] == 0

    def test_volume_overflow_is_usage_error(self, tmp_path, monkeypatch, capsys):
        # A value that grows with e^{h t_total} (the largest polarization, the
        # energy bound or a step's mass phase) passing e^705 is rejected before
        # the evolution and before any output directory is created.  These
        # runs wrote inf energies, or stopped late on a NaN norm: at h t = 720
        # e^{ht} itself overflows, at N = 62 and h t = 703 the polarization.
        def no_evolution(*args, **kwargs):
            raise AssertionError("the evolution started")

        monkeypatch.setattr(cli, "trotter_evolve", no_evolution)
        cases = {
            "h720": ("--hubble", "720", "--mass", "1", "--shots", "1000"),
            "m1e307": (
                "--n_sites", "40", "--initial_state_index", "366503875925", "--mass", "1e307",
                "--hubble", "0", "--shots", "0", "--trotter_steps", "2",
            ),
            "h1e308": (
                "--n_sites", "62", "--hubble", "1e308", "--t_total", "1e-308", "--shots", "0",
                "--trotter_steps", "1",
            ),
            "m1e308": ("--mass", "1e308", "--hubble", "1", "--shots", "100"),
            "t1e308": (
                "--t_total", "1e308", "--hubble", "0", "--mass", "10", "--trotter_steps", "1",
                "--shots", "0",
            ),
            "n62_h703": (
                "--n_sites", "62", "--initial_state_index", "0", "--hubble", "703", "--mass", "1",
                "--shots", "0",
            ),
        }
        for name, flags in cases.items():
            out = tmp_path / name
            argv = ["run", *flags, "--oracle", "off", "--output_dir", str(out)]
            assert cli.main(argv) == cli.EXIT_USAGE, name
            err = capsys.readouterr().err
            assert "passes e^705 at t = t_total" in err and "Traceback" not in err, name
            assert not out.exists(), name

    def test_large_volume_runs_stay_finite(self, tmp_path):
        # h t_total = 360 and 700 at N = 8 keep every value below e^705.
        for hubble in ("360", "700"):
            out = tmp_path / f"h{hubble}"
            argv = ["run", "--hubble", hubble, "--mass", "1", "--oracle", "off", "--shots", "1000"]
            assert cli.main(argv + ["--output_dir", str(out)]) == cli.EXIT_OK, hubble
            for name in ("density.csv", "observables.csv"):
                text = (out / name).read_text()
                assert "inf" not in text and "nan" not in text, (hubble, name)

    def test_oracle_not_converged_is_usage_error(self, tmp_path, monkeypatch, capsys):
        # Starting from 2 steps, a substep budget of 8 stops the paper-m1
        # oracle after its first doubling.
        converged = cli.exact_evolve_converged
        monkeypatch.setattr(
            cli,
            "exact_evolve_converged",
            lambda *args, **kwargs: converged(*args, **kwargs, max_substeps=8),
        )
        out = tmp_path / "m1"
        argv = ["run", "--preset", "paper-m1", "--oracle_substeps_start", "2"]
        assert cli.main(argv + ["--output_dir", str(out)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "did not converge" in err and "--oracle off" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_exact_run_reads_nothing_out(self, tmp_path, monkeypatch):
        # With shots = 0 and the oracle off, a half-filled N = 20 run never
        # forms the C(20, 10) = 184756 amplitudes of its sector.
        def no_readout(*args):
            raise AssertionError("the run read out amplitudes")

        monkeypatch.setattr(state_module, "_sector", no_readout)
        monkeypatch.setattr(state_module, "read_out", no_readout)
        monkeypatch.setattr(cli, "read_out", no_readout)
        half_filled = sum(1 << x for x in range(0, 20, 2))
        config = fast_config(tmp_path, n_sites=20, mass=1.0, shots=0, initial_state_index=half_filled)
        assert cli.run(config) == cli.EXIT_OK
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["invariants"]["norm_drift"] < 1e-12

    def test_oracle_run_reads_out_twice(self, tmp_path, monkeypatch):
        # With shots = 0, the Trotter state and the oracle's are each read
        # out once, for state_distance; the oracle's doublings read out nothing.
        calls = []
        read_out = state_module.read_out

        def counted(*args):
            calls.append(args[0].shape)
            return read_out(*args)

        monkeypatch.setattr(cli, "read_out", counted)
        monkeypatch.setattr(state_module, "read_out", counted)
        argv = ["run", "--preset", "paper-m1", "--shots", "0", "--output_dir", str(tmp_path / "m1")]
        assert cli.main(argv) == cli.EXIT_OK
        assert calls == [(8, 1), (8, 1)]

    def test_shots_and_oracle_read_each_state_out_once(self, tmp_path, monkeypatch):
        # paper-m1 (10000 shots, oracle on) has 11 snapshots and the oracle's
        # state.  The oracle check reads out the last snapshot and the
        # oracle's state; the shots read out each other snapshot once and
        # sample the check's readout of the last snapshot.
        calls, sampled = [], []
        read_out, sample_z_basis = state_module.read_out, cli.sample_z_basis

        def counted(*args):
            states = read_out(*args)
            calls.append((np.ravel(args[2]).tolist(), states))
            return states

        def recorded(states, shots, seed):
            sampled.append(states)
            return sample_z_basis(states, shots, seed)

        monkeypatch.setattr(cli, "read_out", counted)
        monkeypatch.setattr(state_module, "read_out", counted)
        monkeypatch.setattr(cli, "sample_z_basis", recorded)
        argv = ["run", "--preset", "paper-m1", "--output_dir", str(tmp_path / "m1")]
        assert cli.main(argv) == cli.EXIT_OK
        times = [t for call_times, _ in calls for t in call_times]
        assert len(times) == 12
        assert [call_times for call_times, _ in calls[:2]] == [[1.0], [1.0]]
        assert sorted(times[2:]) == pytest.approx([0.1 * i for i in range(10)])
        readouts = [states for _, states in calls[2:]] + [calls[0][1]]
        assert len(sampled) == len(readouts)
        assert all(a is b for a, b in zip(sampled, readouts))

    def test_refused_oracle_reads_nothing_out(self, tmp_path, monkeypatch):
        # At h = 2, m = 1 and t = 5 the oracle's phase passes its step budget,
        # so it stops at once, before any snapshot is read out for the shots.
        calls = []
        read_out = state_module.read_out

        def counted(*args):
            calls.append(args[0].shape)
            return read_out(*args)

        monkeypatch.setattr(cli, "read_out", counted)
        monkeypatch.setattr(state_module, "read_out", counted)
        config = fast_config(tmp_path, hubble=2.0, mass=1.0, t_total=5.0, shots=100, oracle="on")
        with pytest.raises(ResourceLimitError, match="did not converge"):
            cli.run(config)
        flags = ["--hubble", "2", "--mass", "1", "--t_total", "5", "--shots", "100"]
        assert cli.main(["run", *flags, "--output_dir", str(tmp_path / "cli")]) == cli.EXIT_USAGE
        assert calls == []
        assert not (tmp_path / "run").exists() and not (tmp_path / "cli").exists()

    def test_oracle_converges_once_steps_resolve_h1(self, tmp_path, capsys):
        # t ||h1(t)|| ~ 7.7e3 < 65536.  Until the steps resolve h1 the
        # oracle's deltas fall by less than 2^4 per doubling (8.5e-5, 7.8e-5,
        # 1.4e-5 at 1024, 2048, 4096 substeps), then by 435 to 3.2e-8 at
        # 8192: a give-up extrapolated at 4096 would be wrong.  At h = 2 and
        # t = 5 it is ~1.1e5, past the budget, so the run stops at once.
        out = tmp_path / "resolved"
        argv = ["run", "--n_sites", "4", "--hubble", "1", "--mass", "1", "--shots", "0"]
        assert cli.main(argv + ["--t_total", "7", "--output_dir", str(out)]) == cli.EXIT_OK
        oracle = json.loads((out / "summary.json").read_text())["invariants"]["oracle"]
        assert oracle["substeps"] == 32768 and oracle["convergence_delta"] < 1e-10
        argv = ["run", "--n_sites", "4", "--hubble", "2", "--mass", "1", "--shots", "0"]
        out = tmp_path / "unresolved"
        assert cli.main(argv + ["--t_total", "5", "--output_dir", str(out)]) == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "did not converge" in err and "cannot reach" in err
        assert not out.exists()

    def test_one_hole_oracle_past_twelve_sites(self, tmp_path):
        # A one-hole start at N = 14 reads out 14 amplitudes, far inside the
        # readout guard.
        out = tmp_path / "n14"
        argv = ["run", "--n_sites", "14", "--shots", "0", "--trotter_steps", "2"]
        assert cli.main(argv + ["--output_dir", str(out)]) == cli.EXIT_OK
        oracle = json.loads((out / "summary.json").read_text())["invariants"]["oracle"]
        assert oracle["convergence_delta"] < 1e-10
        assert 0 < oracle["state_distance"] < 1.0

    def test_unwritable_output_is_io_error(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        code = cli.main(
            ["run", "--shots", "0", "--oracle", "off",
             "--output_dir", str(blocker / "sub")]
        )
        assert code == cli.EXIT_IO


def write_sample_outputs(root):
    """A shots run with the oracle on, an exact-only run and a sweep whose
    second point (h = 1000) fails, under ``root``."""
    shots = fast_config(root, mass=1.0, shots=100, oracle="on", output_dir=str(root / "shots"))
    assert cli.run(shots) == cli.EXIT_OK
    assert cli.run(fast_config(root, shots=0, output_dir=str(root / "exact"))) == cli.EXIT_OK
    argv = ["sweep", "--parameter", "hubble", "--values", "0.1,1000", "--shots", "10",
            "--oracle", "off", "--output_dir", str(root / "sweep")]
    assert cli.main(argv) == cli.EXIT_USAGE


class TestOutputFormats:
    def test_json_is_strict(self, tmp_path):
        # No NaN or Infinity: a shot record has no energy or norm, and says so
        # with null.
        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        write_sample_outputs(tmp_path)
        names = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*.json"))
        assert names == [
            "exact/summary.json",
            "shots/summary.json",
            "sweep/hubble=0.1/summary.json",
            "sweep/sweep_index.json",
        ]
        loaded = {
            name: json.loads((tmp_path / name).read_text(encoding="utf-8"), parse_constant=refuse)
            for name in names
        }
        shots = loaded["shots/summary.json"]
        assert len(shots["shot_records"]) == 11
        for record in shots["shot_records"]:
            assert record["energy"] is None and record["norm"] is None
            assert record["source"] == "shots" and record["n_total"] > 0
        assert 0 < shots["invariants"]["oracle"]["state_distance"] < 1
        assert "shot_records" not in loaded["exact/summary.json"]
        points = loaded["sweep/sweep_index.json"]["points"]
        assert [p["exit_code"] for p in points] == [cli.EXIT_OK, cli.EXIT_USAGE]

    def test_line_ends_are_newlines_on_every_platform(self, tmp_path, monkeypatch):
        # A text file opened with newline=None writes os.linesep for "\n",
        # which is "\r\n" on Windows; this open does so on any platform.
        def windows_open(path, mode="r", encoding=None, newline=None):
            return open(path, mode, encoding=encoding, newline="\r\n" if newline is None else newline)

        monkeypatch.setattr(cli, "open", windows_open, raising=False)
        write_sample_outputs(tmp_path)
        files = [p for p in tmp_path.rglob("*") if p.is_file()]
        assert len(files) == 3 * len(RUN_OUTPUTS) + 1
        for path in files:
            assert b"\r" not in path.read_bytes(), path


class TestWritersMatchReferences:
    """Each writer's fast path against its slow reference in conftest, bit for bit."""

    def test_viridis_matches_scalar_reference(self, rng):
        # Inputs are finite: a NaN density comes only from a NaN norm, and the
        # norm-drift check stops such a run before any plot is drawn.
        anchors = np.array([0.0, 0.25, 0.5, 0.75, 1.0])
        beside = np.concatenate([np.nextafter(anchors, -1.0), np.nextafter(anchors, 2.0)])
        # On this dyadic grid many channels land on a half: 0.3125 gives red
        # 59 - 26/4 = 52.5, which rounds to even 52, and 0.125 gives red
        # 68 - 9/2 = 63.5, which rounds to even 64.
        dyadic = np.arange(1025) / 1024
        outside = np.array([-1e300, -1.0, -0.0, 1.5, 1e300])
        values = np.concatenate([anchors, beside, dyadic, outside, rng.random(10_000)])
        assert svg.viridis(values) == [viridis_reference(v) for v in values.tolist()]
        assert viridis_reference(0.3125)[:3] == "#34" and viridis_reference(0.125)[:3] == "#40"
        grid = rng.uniform(-0.2, 1.2, size=(7, 5))  # row-major, as heatmap passes it
        assert svg.viridis(grid) == [viridis_reference(v) for row in grid.tolist() for v in row]

    def test_line_chart_matches_per_point_reference(self, rng):
        def series(label, n, offset, scale, errors):
            xs = np.sort(rng.uniform(-2.0, 3.0, n)).tolist()
            ys = (offset + scale * rng.standard_normal(n)).tolist()
            return svg.Series(label, xs, ys, errors and (scale * rng.random(n)).tolist())

        cases = [
            [series("negative", 30, -5.0, 1.0, True)],
            [series("huge", 20, 0.0, 1e300, True), series("exact", 20, 1e299, 1e300, None)],
            [series("tiny", 25, 0.0, 1e-300, True)],  # a ~1e-300 span
            [series("absent", 10, 0.0, 1.0, None), series("one point", 1, 0.5, 1.0, True)],
            [svg.Series("zero", [0.0, 0.5, 1.0], [1.0, -2.0, 0.5], [0.0, 0.0, 0.0])],
            [svg.Series("mixed", [0.0, 0.5, 1.0], [1.0, -2.0, 0.5], [0.0, 0.25, 0.0])],
            [svg.Series("flat", [0.0, 1.0, 2.0, 3.0], [0.25] * 4, [0.0] * 4)],
            [svg.Series("flat zero", [0.0, 1.0], [0.0, 0.0])],
            [svg.Series("flat up to rounding", [0.0, 1.0], [1.0, 1.0 + 2**-52], [])],
        ]
        cases += [[series(f"random {i}", 15, 1.0, 0.3, True) for i in range(4)] for _ in range(5)]
        for case in cases:
            expected = line_chart_reference("t", "x", "y", case, meta="m --x")
            assert svg.line_chart("t", "x", "y", case, meta="m --x") == expected, case[0].label
        # One x value, for one series or two: the flat x range is widened and
        # every point sits at the horizontal centre of the plot.
        centre = "%.2f" % ((svg.MARGIN_LEFT + svg.WIDTH - svg.MARGIN_RIGHT) / 2)
        one_x = [
            [svg.Series("lone", [1.0], [2.0], [0.5])],
            [svg.Series("a", [0.5, 0.5], [1.0, 2.0], [0.1, 0.0]), svg.Series("b", [0.5], [-1.0])],
        ]
        for case in one_x:
            chart = svg.line_chart("t", "x", "y", case)
            assert chart == line_chart_reference("t", "x", "y", case), case[0].label
            circles = ET.fromstring(chart).iter("{http://www.w3.org/2000/svg}circle")
            assert {c.get("cx") for c in circles} == {centre}, case[0].label

    def test_csv_matches_per_cell_reference(self, tmp_path, monkeypatch):
        written = []
        write_csv = cli._write_csv

        def capture(path, header, columns):
            written.append((path, header, columns))
            write_csv(path, header, columns)

        monkeypatch.setattr(cli, "_write_csv", capture)
        write_sample_outputs(tmp_path)
        # Whole-None columns (first, inner and last), ints past 2^53, signed
        # zeros, subnormals, bools and non-finite values, in lists and arrays.
        nan, inf = float("nan"), float("inf")
        odd = [
            None, [0.1, -0.0, 5e-324], None, np.array([3, 2**60, -7]),
            [True, False, True], [inf, -inf, nan], np.array([1 / 3, 1e16, -1e-300]), None,
        ]
        capture(str(tmp_path / "odd.csv"), "a,b,c,d,e,f,g,h", odd)
        capture(str(tmp_path / "ints.csv"), "i,b", [[2**53 + 1, 0], [False, True]])
        capture(str(tmp_path / "lone.csv"), "a,b", [None, [-0.0]])
        assert len(written) == 2 * 3 + 3
        for path, header, columns in written:
            rows = len(next(c for c in columns if c is not None))
            cells = [[None] * rows if c is None else np.asarray(c).tolist() for c in columns]
            lines = [header, *map(csv_line_reference, zip(*cells))]
            with open(path, encoding="utf-8", newline="") as fh:
                assert fh.read() == "\n".join(lines) + "\n", path

    def test_json_matches_json_module(self, tmp_path, monkeypatch):
        written = []
        write_summary_json = cli.write_summary_json

        def capture(path, payload):
            written.append((path, payload))
            write_summary_json(path, payload)

        monkeypatch.setattr(cli, "write_summary_json", capture)
        for preset in sorted(cli.PRESETS):
            out = str(tmp_path / preset)
            assert cli.main(["run", "--preset", preset, "--output_dir", out]) == cli.EXIT_OK
            argv = ["sweep", "--preset", preset, "--parameter", "shots", "--values", "0,500",
                    "--output_dir", out + "-sweep"]
            assert cli.main(argv) == cli.EXIT_OK
        assert sorted(os.path.basename(path) for path, _ in written) == (
            ["summary.json"] * 6 + ["sweep_index.json"] * 2
        )
        errors = ShotErrors((0.5, 0.25), 1.0, 0.0, -0.0, 1e-310, 2.0)
        record = ObservableRecord(
            0.1, (1.0, 0.0), 1.0, 0.0, 2.0, -1.0, None, 0.0, 1.0, "shots", errors
        )
        # Records of one type in every shape a template is keyed by: the
        # energy None or a float, another tuple length, no nested record, a
        # "%" in a string, and ints and bools that look alike (1, True).
        shapes = [
            record, dataclasses.replace(record, energy=0.5), record,
            dataclasses.replace(record, density=(1.0, 0.0, 3.0)),
            dataclasses.replace(record, density=(), shot_errors=None, norm=3),
            dataclasses.replace(record, density=[2.5], source="50% %s %r %%", norm=True),
            dataclasses.replace(record, norm=1), dataclasses.replace(record, energy=-0.0),
        ]
        odd = {
            "empty": [[], {}, ()],
            "flags": [True, False, None],
            "text": ["naïve", "Ωmega – “quoted” \"\\\n\t", "\u0000", "\U0001f600"],
            "numbers": [0, -1, 2**70, 0.1, -0.0, 5e-324, 1e300, 1 / 3],
            "floats": [0.1, -0.0, 5e-324, 1e300, -1 / 3],
            "records": [cli.RunConfig(output_dir="ω"), {"nested": [record], "tuple": (1.5,)}],
            "shapes": shapes,
            "configs": [cli.RunConfig(), cli.RunConfig(seed=2, output_dir="a%b"), cli.RunConfig()],
            "unlike": [record, dataclasses.replace(record, density=({"a": 1.0},))],
        }
        capture(str(tmp_path / "odd.json"), odd)
        for path, payload in written:
            text = json_reference(payload) + "\n"
            assert cli._json(payload, "") + "\n" == text
            with open(path, encoding="utf-8", newline="") as fh:
                assert fh.read() == text, path

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_summary_json_refuses_non_finite(self, tmp_path, value):
        # The bad value sits deep in the payload, after text for other keys has
        # been formed: in a config, in a list of floats, or in the nested
        # ShotErrors of a record list, after a record of the same shape.
        # Still no file is written.
        errors = ShotErrors((0.5, 0.25), 1.0, 0.0, -0.0, 1e-310, 2.0)
        record = ObservableRecord(
            0.1, (1.0, 0.0), 1.0, 0.0, 2.0, -1.0, None, 0.0, 1.0, "shots", errors
        )
        bad_errors = dataclasses.replace(errors, density=(0.5, value), chiral_c=value)
        for bad in (
            cli.RunConfig(hubble=value),
            [1.0, value, 2.0],
            [record, dataclasses.replace(record, shot_errors=bad_errors)],
        ):
            path = tmp_path / "summary.json"
            payload = {"a": [1.0, "x"], "b": [record], "config": bad, "z": None}
            with pytest.raises(ValueError) as got:
                cli.write_summary_json(str(path), payload)
            with pytest.raises(ValueError) as expected:
                json_reference(payload)
            assert str(got.value) == str(expected.value)  # a sweep point's status quotes it
            assert not path.exists()


class TestVerify:
    def test_passes_and_prints(self, capsys):
        assert cli.main(["verify", "--max-n", "8"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "bilinear identities N=8" in out
        assert "N=8 fixture" in out

    def test_small_max_n_skips_fixture(self, capsys):
        assert cli.main(["verify", "--max-n", "4"]) == 0
        out = capsys.readouterr().out
        assert "N=8 fixture" not in out
        assert "bilinear identities N=4" in out

    def test_tampered_fixture_fails(self, capsys, monkeypatch):
        h1, h2, h3 = cli.n8_fixture()
        tampered_terms = [(c + 1e-6 if i == 0 else c, p) for i, (c, p) in enumerate(h1.terms)]
        tampered = PauliSum(8, tampered_terms)
        monkeypatch.setattr(cli, "n8_fixture", lambda: (tampered, h2, h3))
        assert cli.verify(8) == cli.EXIT_VERIFY
        assert "FAIL" in capsys.readouterr().out

    def test_charge_changing_term_fails(self, capsys, monkeypatch):
        # One bare XX bond maps |..00..> to |..11..>, changing the charge by 2.
        hamiltonian_at = cli.hamiltonian_at

        def leaky(params, t):
            bond = PauliString.from_label("XX" + "I" * (params.n_sites - 2))
            return PauliSum(params.n_sites, [*hamiltonian_at(params, t).terms, (1.0, bond)])

        monkeypatch.setattr(cli, "hamiltonian_at", leaky)
        assert cli.verify(4) == cli.EXIT_VERIFY
        out = capsys.readouterr().out
        assert "FAIL  charge commutator N=4" in out
        assert out.count("FAIL") == 1

    def test_max_n_limits(self, capsys):
        with pytest.raises(ValueError):
            cli.verify(12)
        with pytest.raises(ValueError):
            cli.verify(7)
        for max_n in ("2", "7", "12"):
            assert cli.main(["verify", "--max-n", max_n]) == cli.EXIT_USAGE, max_n
            err = capsys.readouterr().err
            assert f"max_n must be an even integer in [4, 10], got {max_n}" in err, max_n

    def test_output_is_pinned(self, capsys):
        assert cli.main(["verify", "--max-n", "8"]) == cli.EXIT_OK
        assert capsys.readouterr().out.splitlines() == [
            "PASS  bilinear identities N=4: max deviation 0.000e+00",
            "PASS  bilinear identities N=6: max deviation 0.000e+00",
            "PASS  bilinear identities N=8: max deviation 0.000e+00",
            "PASS  charge commutator N=4: 0 entries between charge sectors",
            "PASS  charge commutator N=6: 0 entries between charge sectors",
            "PASS  charge commutator N=8: 0 entries between charge sectors",
            "PASS  filled-state eigenvalue N=4: <H> = 0.1, expected 0.1",
            "PASS  filled-state eigenvalue N=6: <H> = 0.15, expected 0.15",
            "PASS  filled-state eigenvalue N=8: <H> = 0.2, expected 0.2",
            "PASS  N=8 fixture hopping vs -h1: term-for-term exact",
            "PASS  N=8 fixture charge vs h2/2: term-for-term exact",
            "PASS  N=8 fixture mass vs h3: term-for-term exact",
        ]


def read_tree(root):
    """Every file under ``root``, by relative path, as bytes."""
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


class TestParallelShots:
    """A run samples its snapshots a block at a time, on the calling thread,
    and starts no thread; the outputs do not depend on the core count."""

    def test_sweep_outputs_do_not_depend_on_core_count(self, tmp_path, monkeypatch):
        # The SVGs embed the output path, so both sweeps write to one path.
        out = tmp_path / "cores"
        base = fast_config(
            tmp_path, n_sites=6, initial_state_index=0b010101, mass=1.0,
            shots=3 * (1 << 14) + 5, output_dir=str(out),
        )
        trees = []
        for cores in (1, 4):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: cores)
            assert cli.sweep(base, "trotter_steps", [2, 3, 5]) == cli.EXIT_OK
            trees.append(read_tree(out))
            shutil.rmtree(out)
        assert len(trees[0]) == 1 + 3 * 7
        assert trees[0] == trees[1]

    def test_one_sampler_call_per_run_on_the_calling_thread(self, tmp_path, monkeypatch):
        # The sampler runs on the calling thread and starts no thread: with
        # blocks of two snapshots, its calls key each block from the seed
        # plus the block's first snapshot.
        calls = []
        sample_z_basis = cli.sample_z_basis

        def recorded(states, shots, seed):
            calls.append((threading.current_thread(), shots, seed))
            return sample_z_basis(states, shots, seed)

        monkeypatch.setattr(cli, "sample_z_basis", recorded)
        before = threading.active_count()
        config = fast_config(tmp_path, shots=16385, seed=9)
        assert cli.run(config) == cli.EXIT_OK
        assert calls == [(threading.main_thread(), config.shots, 9)]
        monkeypatch.setattr(state_module, "_READOUT_BLOCK", 2 * 8 * 8)
        calls.clear()
        assert cli.run(config) == cli.EXIT_OK
        assert calls == [(threading.main_thread(), config.shots, 9 + i) for i in range(0, 11, 2)]
        assert threading.active_count() == before

    def test_import_leaves_thread_pool_unloaded(self):
        code = "import sys, dsfermion.cli; sys.exit('concurrent.futures' in sys.modules)"
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


class TestSnapshotBlocks:
    """A run takes its snapshots in blocks (state.snapshot_blocks) that keep
    every gather within the budget, and the block size changes no byte."""

    @pytest.mark.parametrize("per_block", [1, 2, 3])
    def test_block_size_changes_no_byte(self, tmp_path, monkeypatch, per_block):
        # Half filling at N = 6: a snapshot's minors (C(6, 3) 3 x 3 = 180
        # entries) are its largest gather.  A shots run with the oracle, whose
        # readout the last snapshot reuses, and a sweep of shots runs.
        run = fast_config(
            tmp_path, n_sites=6, mass=1.0, initial_state_index=0b010101, shots=3000,
            oracle="on", oracle_substeps_start=64,
        )
        sweep = fast_config(
            tmp_path, n_sites=6, mass=1.0, initial_state_index=0b010101,
            output_dir=str(tmp_path / "sweep"),
        )

        def outputs():
            assert cli.run(run) == cli.EXIT_OK
            assert cli.sweep(sweep, "trotter_steps", [4, 7]) == cli.EXIT_OK
            tree = read_tree(tmp_path)
            shutil.rmtree(tmp_path / "run")
            shutil.rmtree(tmp_path / "sweep")
            return tree

        whole = outputs()
        monkeypatch.setattr(state_module, "_READOUT_BLOCK", per_block * 180)
        assert len(state_module.snapshot_blocks(11, 6, 3)) == math.ceil(11 / per_block)
        assert outputs() == whole

    @pytest.mark.parametrize("n_sites, start, steps, blocks", [
        (20, sum(1 << x for x in range(0, 20, 2)), 2, 3),
        (62, 1, 1000, 4),
    ])
    def test_gathers_keep_to_the_budget(self, tmp_path, monkeypatch, n_sites, start, steps, blocks):
        # Every det call (a stack of minors, or a k x k Gram matrix) and every
        # block of G = Phi Phi^dag gathers at most _READOUT_BLOCK entries: a
        # half-filled N = 20 snapshot is a block of its own whose minors go
        # in parts, and 1001 one-hole N = 62 snapshots take four blocks.
        budget = state_module._READOUT_BLOCK
        det, exact_record = np.linalg.det, evolve.exact_record
        dets, products = [], []

        def recorded_det(a):
            dets.append(a.shape)
            return det(a)

        def recorded_record(orbitals, *args):
            products.append(orbitals.shape)
            return exact_record(orbitals, *args)

        monkeypatch.setattr(np.linalg, "det", recorded_det)
        monkeypatch.setattr(evolve, "exact_record", recorded_record)
        config = fast_config(
            tmp_path, n_sites=n_sites, initial_state_index=start, mass=1.0, trotter_steps=steps,
            shots=100,
        )
        assert cli.run(config) == cli.EXIT_OK
        assert len(products) == blocks
        assert sum(shape[0] for shape in products) == steps + 1
        assert max(count * n * n for count, n, _ in products) <= budget
        assert max(math.prod(shape) for shape in dets) <= budget
        k = bin(start).count("1")
        minors = [shape for shape in dets if len(shape) == 4]  # the rest are Gram matrices
        assert sum(shape[0] * shape[1] for shape in minors) == (steps + 1) * math.comb(n_sites, k)


class TestSweep:
    def test_sweep_over_mass(self, tmp_path):
        base = fast_config(tmp_path, shots=0, output_dir=str(tmp_path / "sweep"))
        assert cli.sweep(base, "mass", [0.0, 1.0]) == 0
        manifest = json.loads((tmp_path / "sweep" / "sweep_index.json").read_text())
        assert manifest["parameter"] == "mass"
        assert [p["value"] for p in manifest["points"]] == [0.0, 1.0]
        assert [p["seed"] for p in manifest["points"]] == [base.seed, base.seed + 2**32]
        for point in manifest["points"]:
            assert point["status"] == "ok"
            assert os.path.exists(os.path.join(point["output_dir"], "observables.csv"))

    def test_sweep_over_trotter_steps_cli(self, tmp_path):
        out = tmp_path / "steps"
        code = cli.main(
            ["sweep", "--parameter", "trotter_steps", "--values", "5,10",
             "--shots", "0", "--oracle", "off", "--output_dir", str(out)]
        )
        assert code == 0
        manifest = json.loads((out / "sweep_index.json").read_text())
        assert [p["value"] for p in manifest["points"]] == [5, 10]

    def test_points_sample_with_distinct_keys(self, tmp_path, monkeypatch):
        # Point j samples snapshot i with the Philox key seed + j * 2^32 + i,
        # so no two (point, snapshot) pairs share a key.
        draws = record_keys(monkeypatch)
        base = fast_config(tmp_path, n_sites=4, shots=50, seed=7, output_dir=str(tmp_path / "keys"))
        assert cli.sweep(base, "trotter_steps", [10, 20, 40, 80]) == cli.EXIT_OK
        keys = [key for key, _ in draws]
        assert len(keys) == 11 + 21 + 41 + 81
        assert len(set(keys)) == len(keys)
        assert {k >> 32 for k in keys} == {0, 1, 2, 3}

    def test_seed_past_last_point_rejected_before_work(self, tmp_path, monkeypatch, capsys):
        # With the base seed 2^64 - 2^32, the second point's seed would be
        # 2^64, past the uint64 keys.
        def no_evolution(*args, **kwargs):
            raise AssertionError("the evolution started")

        monkeypatch.setattr(cli, "trotter_evolve", no_evolution)
        out = tmp_path / "late"
        argv = ["sweep", "--parameter", "trotter_steps", "--values", "10,20",
                "--seed", str(2**64 - 2**32), "--oracle", "off", "--output_dir", str(out)]
        assert cli.main(argv) == cli.EXIT_USAGE
        assert "2 sweep points need a seed" in capsys.readouterr().err
        assert not out.exists()

    def test_nonfinite_base_rejected_before_work(self, tmp_path, monkeypatch, capsys):
        # sweep_index.json echoes the base config, and strict JSON has no NaN
        # or infinity, also for the swept parameter's base value.
        def no_evolution(*args, **kwargs):
            raise AssertionError("the evolution started")

        monkeypatch.setattr(cli, "trotter_evolve", no_evolution)
        for flag, value in (("t_total", "nan"), ("mass", "inf"), ("hubble", "nan")):
            out = tmp_path / flag
            argv = ["sweep", "--parameter", "hubble", "--values", "0.1", f"--{flag}", value,
                    "--oracle", "off", "--output_dir", str(out)]
            assert cli.main(argv) == cli.EXIT_USAGE, flag
            assert f"{flag} must be finite, got {value}" in capsys.readouterr().err
            assert not out.exists(), flag

    def test_repeated_values_rejected(self, tmp_path):
        # 0.1 and 0.10 are one value, whose point directory the second run
        # would overwrite.
        out = tmp_path / "repeat"
        code = cli.main(
            ["sweep", "--parameter", "hubble", "--values", "0.1,0.10",
             "--shots", "0", "--oracle", "off", "--output_dir", str(out)]
        )
        assert code == cli.EXIT_USAGE
        assert not out.exists()

    def test_empty_values_rejected(self, tmp_path):
        base = fast_config(tmp_path)
        with pytest.raises(ValueError):
            cli.sweep(base, "mass", [])

    def test_unknown_parameter_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            cli.sweep(fast_config(tmp_path), "t_total", [1.0])

    def test_failing_point_recorded(self, tmp_path, monkeypatch):
        # A point fails with the exit code `run` would give it: index 999999
        # is a usage error, a norm drift in the kernels an invariant
        # violation, and any other exception counts as a usage error.
        def drifting_evolve(*args, **kwargs):
            raise NormDriftError("norm drifted by 1e-6")

        def crashing_evolve(*args, **kwargs):
            return 1 / 0

        for name, evolve, codes, first_status in (
            ("sweep", cli.trotter_evolve, [cli.EXIT_OK, cli.EXIT_USAGE], "ok"),
            ("drift", drifting_evolve, [cli.EXIT_INVARIANT, cli.EXIT_USAGE], "invariant-violation: norm drifted by 1e-6"),
            ("crash", crashing_evolve, [cli.EXIT_USAGE, cli.EXIT_USAGE], "error: division by zero"),
        ):
            monkeypatch.setattr(cli, "trotter_evolve", evolve)
            base = fast_config(tmp_path, output_dir=str(tmp_path / name))
            assert cli.sweep(base, "initial_state_index", [1, 999_999]) == max(codes), name
            manifest = json.loads((tmp_path / name / "sweep_index.json").read_text())
            assert [p["exit_code"] for p in manifest["points"]] == codes, name
            statuses = [p["status"] for p in manifest["points"]]
            assert statuses[0] == first_status, name
            assert statuses[1].startswith("error:")


class TestUsage:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as info:
            cli.main([])
        assert info.value.code == cli.EXIT_USAGE

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as info:
            cli.main(["run", "--frobnicate", "1"])
        assert info.value.code == cli.EXIT_USAGE

    def test_env_var_sets_default_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DSFERMION_OUTPUT_DIR", str(tmp_path / "envout"))
        config = cli.RunConfig()
        assert config.output_dir == str(tmp_path / "envout")
