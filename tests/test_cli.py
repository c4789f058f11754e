import json

import numpy as np
import pytest

from cavityfredkin.cli import (
    _ROW_FORMAT,
    ConfigError,
    ExperimentConfig,
    _fmt,
    main,
    run_experiment,
    sweep,
)


def read_csv(path):
    header_lines, columns, rows = [], None, []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                header_lines.append(line)
            elif columns is None:
                columns = line.split(",")
            else:
                rows.append(dict(zip(columns, line.split(","))))
    return header_lines, columns, rows


class TestConfig:
    def test_unknown_key_is_named(self):
        with pytest.raises(ConfigError, match="frobnicate"):
            ExperimentConfig().updated({"frobnicate": "1"})

    def test_bad_value_is_named(self):
        with pytest.raises(ConfigError, match="kappa_over_g"):
            ExperimentConfig().updated({"kappa_over_g": "fast"})
        with pytest.raises(ConfigError, match="gamma_equals_kappa.*expected a boolean"):
            ExperimentConfig().updated({"gamma_equals_kappa": "maybe"})

    def test_file_roundtrip(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "scheme = dispersive\n"
            "Omega_over_g = 0.1\n"
            "kappa_over_g: 0.002   # trailing comment\n"
            "\n"
            "sector_cap = none\n"
            "Delta_over_g = none\n"
            "gamma_equals_kappa = yes\n"
            "workers: 1\n"
        )
        cfg = ExperimentConfig.from_file(str(cfg_file))
        assert cfg.scheme == "dispersive"
        assert cfg.Omega_over_g == "0.1"
        assert cfg.kappa_over_g == 0.002
        assert cfg.sector_cap is None
        assert cfg.Delta_over_g is None
        assert cfg.gamma_equals_kappa is True
        assert cfg.workers == 1

    def test_scheme_defaults(self):
        cfg = ExperimentConfig(scheme="dispersive").resolved()
        assert cfg.Delta_over_g == 1.0
        assert cfg.pulse == "constant"
        assert float(cfg.Omega_over_g) == 0.02
        cfg = ExperimentConfig(scheme="resonant").resolved()
        assert cfg.Delta_over_g == 0.0
        assert cfg.pulse == "adiabatic"

    def test_dispersive_rejects_adiabatic(self):
        with pytest.raises(ConfigError, match="pulse"):
            ExperimentConfig(scheme="dispersive", pulse="adiabatic").resolved()

    def test_sweep_validation(self):
        base = dict(task="sweep", sweep_parameter="kappa_over_g", sweep_points=3,
                    sweep_start=0.0, sweep_stop=0.01)
        ExperimentConfig(**base).resolved()
        with pytest.raises(ConfigError, match="sweep_stop"):
            ExperimentConfig(**{**base, "sweep_stop": -1.0}).resolved()
        with pytest.raises(ConfigError, match="sweep_points"):
            ExperimentConfig(**{**base, "sweep_points": 1}).resolved()
        with pytest.raises(ConfigError, match="sweep_parameter"):
            ExperimentConfig(**{**base, "sweep_parameter": "J_over_g"}).resolved()

    def test_preset_rates(self):
        cfg = ExperimentConfig(preset="toroidal").resolved()
        assert cfg.kappa_over_g == pytest.approx(3.5 / 750)
        assert cfg.gamma_over_g == pytest.approx(2.62 / 750)
        with pytest.raises(ConfigError, match="preset"):
            ExperimentConfig(preset="bogus").resolved()

    def test_negative_rate_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(kappa_over_g=-0.1).resolved()

    def test_kappa_sweep_rejects_negative_start(self):
        with pytest.raises(ConfigError, match="sweep_start"):
            ExperimentConfig(task="sweep", scheme="dispersive", Omega_over_g="0.1",
                             sweep_parameter="kappa_over_g", sweep_start=-0.002,
                             sweep_stop=0.002, sweep_points=2).resolved()

    @pytest.mark.parametrize("pulse", ["bogus", "adiabatic"])
    def test_multi_scheme_sweep_checks_pulse(self, pulse):
        """Every scheme of a sweep is checked, not only single-scheme configs:
        an unknown pulse, or an adiabatic one for the dispersive scheme."""
        with pytest.raises(ConfigError, match="pulse"):
            ExperimentConfig(task="sweep", scheme="resonant,dispersive", pulse=pulse,
                             sweep_parameter="Omega_over_g", sweep_start=0.09,
                             sweep_stop=0.1, sweep_points=2).resolved()

    def test_for_scheme_fills_defaults_and_keeps_values(self):
        base = ExperimentConfig(task="sweep", scheme="resonant,dispersive",
                                sweep_parameter="kappa_over_g", sweep_stop=0.01,
                                sweep_points=2)
        point = base.for_scheme("dispersive")
        assert (point.scheme, point.Delta_over_g, point.pulse, point.Omega_over_g) == \
            ("dispersive", 1.0, "constant", "0.02")
        point = base.for_scheme("resonant", Omega_over_g="0.1", Delta_over_g=0.5)
        assert (point.Delta_over_g, point.pulse, point.Omega_over_g) == (0.5, "adiabatic", "0.1")
        assert base.resolved().pulse == "" and base.resolved().Delta_over_g is None


@pytest.fixture(scope="module")
def populations_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("pops") / "pops.csv"
    cfg = ExperimentConfig(
        task="populations", scheme="resonant", Omega_over_g="0.1",
        output=str(out),
    )
    return run_experiment(cfg), out


class TestPopulationsTask:
    def test_one_file_per_initial_state(self, populations_run):
        summary, out = populations_run
        assert len(summary["files"]) == 8
        for q in range(8):
            assert str(out).replace(".csv", f"_from_q{q}.csv") in summary["files"]

    def test_columns_and_header(self, populations_run):
        summary, _ = populations_run
        header, columns, rows = read_csv(summary["files"][6])
        assert columns == ["t_in_invg"] + [f"p_q{k}" for k in range(8)]
        assert any("scheme = resonant" in line for line in header)
        assert any(line.startswith("# cavityfredkin") for line in header)
        assert float(rows[0]["t_in_invg"]) == 0.0

    def test_swap_visible_in_csv(self, populations_run):
        summary, _ = populations_run
        _, _, rows = read_csv(summary["files"][6])
        assert float(rows[-1]["p_q5"]) >= 0.99
        assert float(rows[0]["p_q6"]) == 1.0

    def test_dissipative_run_builds_one_generator(self, tmp_path, monkeypatch):
        import cavityfredkin.propagate as propagate

        builds = []
        init = propagate.LindbladGenerator.__init__

        def counting(self, *args, **kwargs):
            builds.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(propagate.LindbladGenerator, "__init__", counting)
        cfg = ExperimentConfig(
            task="populations", scheme="dispersive", Omega_over_g="0.1",
            kappa_over_g=0.005, gamma_over_g=0.005, fock_cap=1,
            output=str(tmp_path / "lossy.csv"),
        )
        summary = run_experiment(cfg)
        assert len(summary["files"]) == 8
        assert len(builds) == 1  # one per input before evolve_densities

    def test_byte_reproducible(self, populations_run, tmp_path):
        summary, _ = populations_run
        cfg = ExperimentConfig(
            task="populations", scheme="resonant", Omega_over_g="0.1",
            output=str(tmp_path / "again.csv"),
        )
        rerun = run_experiment(cfg)
        a = open(summary["files"][2]).read().replace("pops", "again")
        b = open(rerun["files"][2]).read()
        # identical except the output-path provenance line
        strip = lambda text: "\n".join(
            l for l in text.splitlines() if not l.startswith("# output")
        )
        assert strip(a) == strip(b)

    def test_dotted_directory_without_extension(self, tmp_path):
        """Only the file name's extension is split off: a dot in a directory
        name stays, and a name without an extension gets ``.csv``."""
        folder = tmp_path / "v1.2"
        folder.mkdir()
        cfg = ExperimentConfig(task="populations", scheme="resonant", Omega_over_g="0.1",
                               output=str(folder / "pops"))
        summary = run_experiment(cfg)
        assert summary["files"] == [str(folder / f"pops_from_q{q}.csv") for q in range(8)]
        assert all((folder / f"pops_from_q{q}.csv").exists() for q in range(8))

    def test_row_format_matches_fmt(self):
        rng = np.random.default_rng(11)
        values = [0.0, 1.0, 1e-5, 1e-17, float("nan"), -0.0, 1.0 - 1e-13]
        values += rng.random(200).tolist() + (rng.standard_normal(200) * 1e3).tolist()
        values += (10.0 ** rng.uniform(-20, 5, 200)).tolist()
        values += [values[0]] * (-len(values) % 9)
        for k in range(0, len(values), 9):
            row = values[k:k + 9]
            assert _ROW_FORMAT % tuple(row) == ",".join(_fmt(v) for v in row) + "\n"


class TestFidelityTask:
    def test_fidelity_csv(self, tmp_path):
        out = tmp_path / "fid.csv"
        cfg = ExperimentConfig(
            task="fidelity", scheme="dispersive", Omega_over_g="0.1",
            output=str(out), json_summary=str(tmp_path / "fid.json"),
        )
        summary = run_experiment(cfg)
        header, columns, rows = read_csv(str(out))
        assert columns == ["param", "scheme", "drive", "fidelity", "leakage",
                           "trace_drift", "seconds"]
        assert len(rows) == 1
        assert rows[0]["scheme"] == "dispersive"
        assert 0.9 <= float(rows[0]["fidelity"]) <= 1.0
        assert summary["fidelity"] == pytest.approx(float(rows[0]["fidelity"]))
        blob = json.loads((tmp_path / "fid.json").read_text())
        assert blob["task"] == "fidelity"
        assert blob["config"]["scheme"] == "dispersive"

    def test_twelve_significant_digits(self, tmp_path):
        out = tmp_path / "fmt.csv"
        cfg = ExperimentConfig(
            task="fidelity", scheme="dispersive", Omega_over_g="0.1", output=str(out)
        )
        run_experiment(cfg)
        _, _, rows = read_csv(str(out))
        mantissa = rows[0]["fidelity"].lstrip("0.").rstrip("0")
        assert len(rows[0]["fidelity"]) >= 12  # 12 significant digits requested


class TestSweepTask:
    def test_omega_sweep_rows_ordered(self, tmp_path):
        out = tmp_path / "sweep.csv"
        cfg = ExperimentConfig(
            task="sweep", scheme="dispersive", sweep_parameter="Omega_over_g",
            sweep_start=0.08, sweep_stop=0.1, sweep_points=2,
            output=str(out), workers=1,
        )
        summary = run_experiment(cfg)
        _, _, rows = read_csv(str(out))
        assert [float(r["param"]) for r in rows] == [0.08, 0.1]
        assert all(float(r["fidelity"]) > 0.9 for r in rows)
        assert all(float(r["seconds"]) >= 0.0 for r in rows)
        assert len(summary["rows"]) == 2

    def test_parallel_rows_match_serial(self, tmp_path):
        """Pool workers and the serial loop write the same rows: per-process
        constants carry no state between sweep points."""
        rows = {}
        for workers in (1, 2):
            out = tmp_path / f"w{workers}.csv"
            run_experiment(ExperimentConfig(
                task="sweep", scheme="resonant,dispersive", sweep_parameter="Omega_over_g",
                sweep_start=0.09, sweep_stop=0.1, sweep_points=2,
                output=str(out), workers=workers,
            ))
            _, columns, rows[workers] = read_csv(str(out))
        assert len(rows[1]) == 4
        for serial, parallel in zip(rows[1], rows[2]):
            assert {c: serial[c] for c in columns if c != "seconds"} == \
                {c: parallel[c] for c in columns if c != "seconds"}

    def test_kappa_sweep_ties_gamma(self, tmp_path):
        out = tmp_path / "ks.csv"
        cfg = ExperimentConfig(
            task="sweep", scheme="dispersive", Omega_over_g="0.1",
            sweep_parameter="kappa_over_g", sweep_start=0.0, sweep_stop=0.01,
            sweep_points=2, gamma_equals_kappa=True, output=str(out), workers=2,
        )
        run_experiment(cfg)
        _, _, rows = read_csv(str(out))
        fids = [float(r["fidelity"]) for r in rows]
        assert fids[0] > fids[1]  # decay degrades the gate

    def test_programmatic_grid(self, tmp_path):
        cfg = ExperimentConfig(
            scheme="dispersive", Omega_over_g="0.1",
            output=str(tmp_path / "pg.csv"), workers=1,
        )
        summary = sweep(cfg, "kappa_over_g", [0.0, 0.005])
        assert len(summary["rows"]) == 2

    @pytest.mark.parametrize("grid", [
        [0.02, 0.05, 0.1],  # uneven: linspace would run 0.06
        [0.1, 0.05, 0.02],  # descending
        [0.05, 0.05],
        [0.05],
        [[0.02, 0.05], [0.08, 0.1]],
    ])
    def test_programmatic_grid_must_be_linspace(self, tmp_path, grid):
        cfg = ExperimentConfig(scheme="dispersive", output=str(tmp_path / "bad.csv"))
        with pytest.raises(ValueError, match="grid"):
            sweep(cfg, "Omega_over_g", grid)
        assert not (tmp_path / "bad.csv").exists()

    def test_programmatic_grid_runs_its_values(self, tmp_path, monkeypatch):
        import cavityfredkin.cli as cli_mod

        def fake_point(point):
            return {"scheme": point.scheme,
                    "drive": float(point.Omega_over_g), "fidelity": 1.0,
                    "leakage": 0.0, "trace_drift": 0.0, "seconds": 0.0}

        monkeypatch.setattr(cli_mod, "_fidelity_point", fake_point)
        grid = [0.02, 0.04, 0.06, 0.08, 0.1]
        cfg = ExperimentConfig(scheme="dispersive", output=str(tmp_path / "g.csv"),
                               workers=1)
        summary = sweep(cfg, "Omega_over_g", grid)
        assert [r["drive"] for r in summary["rows"]] == pytest.approx(grid, rel=1e-12)

    def test_multi_scheme_rows_equal_single_scheme_rows(self, tmp_path):
        """Each scheme of a sweep gets its own Delta and pulse defaults: the
        two-scheme rows are the rows of the two one-scheme sweeps."""
        def rows(scheme):
            out = tmp_path / f"{scheme.replace(',', '_')}.csv"
            run_experiment(ExperimentConfig(
                task="sweep", scheme=scheme, sweep_parameter="Omega_over_g",
                sweep_start=0.09, sweep_stop=0.1, sweep_points=2,
                output=str(out), workers=1,
            ))
            _, columns, found = read_csv(str(out))
            return [{c: r[c] for c in columns if c != "seconds"} for r in found]

        both = rows("resonant,dispersive")
        single = rows("resonant") + rows("dispersive")
        key = lambda r: (float(r["param"]), r["scheme"])
        assert len(both) == 4
        assert both == sorted(single, key=key)

    def test_failed_point_recorded_in_row(self, tmp_path, monkeypatch, capsys):
        import cavityfredkin.cli as cli_mod

        real = cli_mod._fidelity_point

        def flaky(point):
            if float(point.Omega_over_g) < 0.09:
                raise RuntimeError("synthetic point failure")
            return real(point)

        monkeypatch.setattr(cli_mod, "_fidelity_point", flaky)
        out = tmp_path / "flaky.csv"
        cfg = ExperimentConfig(
            task="sweep", scheme="dispersive", sweep_parameter="Omega_over_g",
            sweep_start=0.08, sweep_stop=0.1, sweep_points=2,
            output=str(out), workers=1,
        )
        summary = run_experiment(cfg)
        _, _, rows = read_csv(str(out))
        assert len(rows) == 2
        assert rows[0]["fidelity"] == "nan"
        assert float(rows[1]["fidelity"]) > 0.9
        assert "synthetic point failure" in capsys.readouterr().err


class TestMain:
    def test_presets_subcommand(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        assert "toroidal" in out and "nanocavity" in out
        assert f"{3.5 / 750:.12g}" in out

    def test_fidelity_subcommand(self, tmp_path, capsys):
        out = tmp_path / "cli.csv"
        rc = main([
            "fidelity", "--scheme", "dispersive", "--Omega_over_g", "0.1",
            "--output", str(out),
        ])
        assert rc == 0
        assert "fidelity =" in capsys.readouterr().out
        assert out.exists()

    def test_config_error_exit_code(self, capsys, tmp_path):
        rc = main(["fidelity", "--scheme", "martian",
                   "--output", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_bad_sweep_pulse_exits_2_without_output(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        rc = main(["sweep", "--scheme", "resonant,dispersive", "--pulse", "bogus",
                   "--sweep_parameter", "Omega_over_g", "--sweep_start", "0.09",
                   "--sweep_stop", "0.1", "--sweep_points", "2", "--output", str(out)])
        assert rc == 2
        assert "'pulse'" in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_with_override(self, tmp_path, capsys):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("scheme = dispersive\nOmega_over_g = 0.05\n")
        out = tmp_path / "o.csv"
        rc = main([
            "fidelity", "--config", str(cfg_file),
            "--Omega_over_g", "0.1", "--output", str(out),
        ])
        assert rc == 0
        _, _, rows = read_csv(str(out))
        assert float(rows[0]["drive"]) == 0.1



class TestConfigDriveLists:
    def test_single_task_rejects_drive_list(self):
        with pytest.raises(ConfigError, match="Omega_over_g"):
            ExperimentConfig(task="fidelity", Omega_over_g="0.02,0.05").resolved()

    def test_drive_sweep_rejects_drive_list(self):
        with pytest.raises(ConfigError, match="Omega_over_g"):
            ExperimentConfig(
                task="sweep", Omega_over_g="0.02,0.05",
                sweep_parameter="Omega_over_g", sweep_start=0.02,
                sweep_stop=0.1, sweep_points=3,
            ).resolved()
