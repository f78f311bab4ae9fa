"""CLI subcommands, config handling, output files and exit codes."""

import json
import os

import pytest

import dsfermion.state as state_module
from dsfermion import cli, evolve
from dsfermion.errors import NormDriftError
from dsfermion.pauli import PauliString, PauliSum


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


def read_csv(path):
    with open(path, "r", encoding="utf-8") as fh:
        header, *rows = fh.read().strip().splitlines()
    return header.split(","), [row.split(",") for row in rows]


class TestPresets:
    @pytest.mark.parametrize("mass_choice", [0, 1])
    def test_paper_preset_values(self, mass_choice):
        config = cli.preset_paper(mass_choice)
        assert config.n_sites == 8
        assert config.hubble == 0.1
        assert config.mass == float(mass_choice)
        assert config.trotter_steps == 10
        assert config.shots == 10000
        assert config.initial_state_index == 1
        assert config.t_total / config.trotter_steps == pytest.approx(0.1)
        assert config.oracle == "on"

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
        for name in (
            "density.csv",
            "observables.csv",
            "summary.json",
            "density_heatmap.svg",
            "correlation.svg",
            "polarization.svg",
            "chiral.svg",
        ):
            assert (out / name).exists(), name

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
        density = (out / "density.csv").read_bytes()
        code = cli.main(["run", "--config", str(out / "summary.json")])
        assert code == 0
        assert (out / "density.csv").read_bytes() == density

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
        # Each bad field is rejected by the constructor `run` calls for it,
        # or by RunConfig.validate, before the evolution starts and before
        # any output directory is created.
        def no_evolution(*args, **kwargs):
            raise AssertionError("the evolution started")

        monkeypatch.setattr(cli, "trotter_evolve", no_evolution)
        # Half filling at N = 24 is valid with shots 0 and the oracle off,
        # but a readout for the oracle or for shots would gather C(24, 12) *
        # 12^2 = 389M minor entries, past the readout guard; n_sites=64 is
        # beyond the int64 basis index.  Starts of 65536 and 131073 steps
        # double past the 2^16 step budget.  The seed keys a uint64 Philox
        # stream, and with the default 10 steps the last snapshot samples
        # with seed + 10.  Sweep points are 2^32 seeds apart, so a run takes
        # fewer than 2^32 steps.  More than 2^28 shots would draw over 2 GiB.
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

    def test_volume_overflow_is_usage_error(self, tmp_path, monkeypatch, capsys):
        # At h t_total = 360 the shot variance overflowed to inf and the plot
        # ticks crashed; at 720 e^{ht} itself overflowed.  Both are rejected
        # before the evolution and before any output directory is created.
        def no_evolution(*args, **kwargs):
            raise AssertionError("the evolution started")

        monkeypatch.setattr(cli, "trotter_evolve", no_evolution)
        for hubble in ("360", "720"):
            out = tmp_path / f"h{hubble}"
            argv = ["run", "--hubble", hubble, "--mass", "1", "--oracle", "off", "--shots", "1000"]
            assert cli.main(argv + ["--output_dir", str(out)]) == cli.EXIT_USAGE, hubble
            err = capsys.readouterr().err
            assert "hubble * t_total must be <= 300" in err and "Traceback" not in err
            assert not out.exists(), hubble
        cli.RunConfig(hubble=300.0, t_total=1.0).validate()  # the bound itself is allowed

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

        monkeypatch.setattr(evolve, "_sector", no_readout)
        monkeypatch.setattr(evolve, "read_out", no_readout)
        half_filled = sum(1 << x for x in range(0, 20, 2))
        config = fast_config(tmp_path, n_sites=20, mass=1.0, shots=0, initial_state_index=half_filled)
        assert cli.run(config) == cli.EXIT_OK
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["invariants"]["norm_drift"] < 1e-12

    def test_oracle_run_reads_out_twice(self, tmp_path, monkeypatch):
        # With shots = 0, the Trotter state and the oracle's are each read
        # out once, for state_distance; the oracle's doublings read out nothing.
        calls = []
        read_out = evolve.read_out

        def counted(*args):
            calls.append(args[0].shape)
            return read_out(*args)

        monkeypatch.setattr(cli, "read_out", counted)
        monkeypatch.setattr(evolve, "read_out", counted)
        argv = ["run", "--preset", "paper-m1", "--shots", "0", "--output_dir", str(tmp_path / "m1")]
        assert cli.main(argv) == cli.EXIT_OK
        assert calls == [(8, 1), (8, 1)]

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
            return hamiltonian_at(params, t) + PauliSum(params.n_sites, [(1.0, bond)])

        monkeypatch.setattr(cli, "hamiltonian_at", leaky)
        assert cli.verify(4) == cli.EXIT_VERIFY
        out = capsys.readouterr().out
        assert "FAIL  charge commutator N=4" in out
        assert out.count("FAIL") == 1

    def test_max_n_limits(self):
        with pytest.raises(ValueError):
            cli.verify(12)
        with pytest.raises(ValueError):
            cli.verify(7)


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
        keys = []
        uniform_draws = state_module._uniform_draws

        def recorded(shots, seed):
            keys.append(seed)
            return uniform_draws(shots, seed)

        monkeypatch.setattr(state_module, "_uniform_draws", recorded)
        base = fast_config(tmp_path, n_sites=4, shots=50, seed=7, output_dir=str(tmp_path / "keys"))
        assert cli.sweep(base, "trotter_steps", [10, 20, 40, 80]) == cli.EXIT_OK
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
        # is a usage error, and a norm drift in the kernels an invariant
        # violation.
        def drifting_evolve(*args, **kwargs):
            raise NormDriftError("norm drifted by 1e-6")

        for name, evolve, codes, first_status in (
            ("sweep", cli.trotter_evolve, [cli.EXIT_OK, cli.EXIT_USAGE], "ok"),
            ("drift", drifting_evolve, [cli.EXIT_INVARIANT, cli.EXIT_USAGE], "invariant-violation: norm drifted by 1e-6"),
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
