import json
import multiprocessing
import os
import subprocess
import sys
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace

import numpy as np
import pytest

import cavityfredkin
import cavityfredkin.cli as cli_mod
from cavityfredkin.cli import (
    _ROW_FORMAT,
    ConfigError,
    ExperimentConfig,
    _fmt,
    main,
    run_experiment,
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
            "Delta_over_g = none\n"
            "gamma_equals_kappa = yes\n"
            "workers: 1\n"
        )
        cfg = ExperimentConfig.from_file(str(cfg_file))
        assert cfg.scheme == "dispersive"
        assert cfg.Omega_over_g == "0.1"
        assert cfg.kappa_over_g == 0.002
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

    def test_kappa_sweep_dt_rule_counts_the_tied_gamma(self):
        """At dt = 0.01 the decay scale 6 kappa + 3 gamma may reach 278.5:
        kappa = 40 alone passes, kappa = gamma = 40 does not."""
        base = ExperimentConfig(task="sweep", scheme="dispersive", Omega_over_g="0.1",
                                sweep_parameter="kappa_over_g", sweep_stop=40.0,
                                sweep_points=2)
        base.resolved()
        with pytest.raises(ConfigError, match="dt_over_invg.*decay scale 360"):
            replace(base, gamma_equals_kappa=True).resolved()

    def test_dt_rule_is_checked_at_the_largest_drive(self):
        """The Hamiltonian half of the dt rule fails first at the largest
        drive: at dt = 0.012 the resonant pulse passes at 0.05 g (scale
        4.01, dt <= 0.0125) and not at 0.1 g (scale 4.21)."""
        base = ExperimentConfig(task="sweep", scheme="resonant", dt_over_invg=0.012,
                                sweep_parameter="Omega_over_g", sweep_start=0.04,
                                sweep_stop=0.05, sweep_points=2)
        base.resolved()
        with pytest.raises(ConfigError, match="dt_over_invg.*Hamiltonian scale 4.21"):
            replace(base, sweep_stop=0.1).resolved()
        with pytest.raises(ConfigError, match="dt_over_invg.*Hamiltonian scale 4.21"):
            replace(base, Omega_over_g="0.05,0.1", sweep_parameter="kappa_over_g",
                    sweep_start=0.0, sweep_stop=0.001).resolved()

    @pytest.mark.parametrize("config, count", [
        (dict(scheme="resonant,dispersive", sweep_parameter="Omega_over_g",
              sweep_start=0.05, sweep_stop=0.1, sweep_points=3), 6),
        (dict(scheme="dispersive", Omega_over_g="0.05,0.1", sweep_parameter="kappa_over_g",
              sweep_start=0.0, sweep_stop=0.01, sweep_points=3, gamma_equals_kappa=True), 6),
    ], ids=["two-scheme-drive-sweep", "tied-kappa-sweep-with-drive-list"])
    def test_resolved_checks_every_point_the_sweep_runs(self, tmp_path, monkeypatch,
                                                        config, count):
        """The dt rule is checked at exactly the (scheme, drive, kappa, gamma)
        points whose rows the sweep writes, each once."""
        gated, checked = [], []
        gate, check = cli_mod._gate, cli_mod.check_dt

        def recording_gate(point):
            gated.append(point)
            return gate(point)

        def recording_check(*args):
            p = gated[-1]
            checked.append((p.scheme, p.drives()[0], p.kappa_over_g, p.gamma_over_g))
            return check(*args)

        def fake_point(point):
            return {"scheme": point.scheme, "drive": point.drives()[0],
                    "kappa": point.kappa_over_g, "gamma": point.gamma_over_g,
                    "fidelity": 1.0, "leakage": 0.0, "trace_drift": 0.0, "seconds": 0.0}

        monkeypatch.setattr(cli_mod, "_gate", recording_gate)
        monkeypatch.setattr(cli_mod, "check_dt", recording_check)
        monkeypatch.setattr(cli_mod, "_fidelity_point", fake_point)
        summary = run_experiment(ExperimentConfig(task="sweep", workers=1,
                                                  output=str(tmp_path / "s.csv"), **config))
        rows = [(r["scheme"], r["drive"], r["kappa"], r["gamma"]) for r in summary["rows"]]
        assert len(checked) == len(set(checked)) == count
        assert sorted(checked) == sorted(rows)
        if config.get("gamma_equals_kappa"):
            assert all(kappa == gamma for _, _, kappa, gamma in checked)

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
            kappa_over_g=0.005, gamma_over_g=0.005,
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
            output=str(out),
        )
        summary = run_experiment(cfg)
        header, columns, rows = read_csv(str(out))
        assert columns == ["param", "scheme", "drive", "fidelity", "leakage",
                           "trace_drift", "seconds"]
        assert len(rows) == 1
        assert rows[0]["scheme"] == "dispersive"
        assert 0.9 <= float(rows[0]["fidelity"]) <= 1.0
        assert summary["fidelity"] == pytest.approx(float(rows[0]["fidelity"]))

    @pytest.mark.parametrize("task, extra", [
        ("fidelity", {}),
        ("sweep", dict(sweep_parameter="Omega_over_g", sweep_start=0.08, sweep_stop=0.1,
                       sweep_points=2, workers=1)),
        ("populations", {}),
    ])
    def test_json_summary(self, tmp_path, task, extra):
        """Every task's summary is plain JSON: a numpy value that is not a
        Python float fails the dump."""
        cfg = ExperimentConfig(task=task, scheme="dispersive", Omega_over_g="0.1",
                               output=str(tmp_path / "out.csv"),
                               json_summary=str(tmp_path / "summary.json"), **extra)
        summary = run_experiment(cfg)
        blob = json.loads((tmp_path / "summary.json").read_text())
        assert blob["task"] == summary["task"] == task
        assert blob["files"] == summary["files"]
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


def pooled_sweep_rows(out, workers, points=2):
    """The rows of a two-scheme drive sweep on ``workers`` processes, without
    the ``seconds`` column, as the sweep returns them (floats, not text)."""
    summary = run_experiment(ExperimentConfig(
        task="sweep", scheme="resonant,dispersive", sweep_parameter="Omega_over_g",
        sweep_start=0.09, sweep_stop=0.1, sweep_points=points, output=str(out),
        workers=workers,
    ))
    return [{c: v for c, v in row.items() if c != "seconds"} for row in summary["rows"]]


@pytest.fixture
def fresh_pool():
    """No sweep pool before the test, and none left after it."""
    def drop():
        if cli_mod._POOL is not None:
            cli_mod._POOL[1].shutdown()
        cli_mod._POOL = None

    drop()
    yield
    drop()


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

    def test_parallel_rows_match_serial(self, tmp_path, fresh_pool):
        """Pool workers and the serial loop return the same rows, bit for bit:
        per-process constants carry no state between sweep points, nor
        between sweeps.  The second pooled sweep runs on the first one's
        pool and worker processes."""
        serial = pooled_sweep_rows(tmp_path / "serial.csv", 1)
        assert cli_mod._POOL is None  # the serial loop starts no pool
        first = pooled_sweep_rows(tmp_path / "first.csv", 2)
        pool = cli_mod._POOL[1]
        pids = {p.pid for p in multiprocessing.active_children()}
        again = pooled_sweep_rows(tmp_path / "again.csv", 2)
        assert cli_mod._POOL[1] is pool and len(pids) == 2
        assert {p.pid for p in multiprocessing.active_children()} == pids
        assert len(serial) == 4
        assert first == serial and again == serial

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
            task="sweep", scheme="dispersive", Omega_over_g="0.1",
            sweep_parameter="kappa_over_g", sweep_start=0.0, sweep_stop=0.005,
            sweep_points=2, output=str(tmp_path / "pg.csv"), workers=1,
        )
        summary = run_experiment(cfg)
        assert len(summary["rows"]) == 2

    def test_programmatic_grid_runs_its_values(self, tmp_path, monkeypatch):
        import cavityfredkin.cli as cli_mod

        def fake_point(point):
            return {"scheme": point.scheme,
                    "drive": float(point.Omega_over_g), "fidelity": 1.0,
                    "leakage": 0.0, "trace_drift": 0.0, "seconds": 0.0}

        monkeypatch.setattr(cli_mod, "_fidelity_point", fake_point)
        grid = [0.02, 0.04, 0.06, 0.08, 0.1]
        cfg = ExperimentConfig(task="sweep", scheme="dispersive",
                               sweep_parameter="Omega_over_g", sweep_start=0.02,
                               sweep_stop=0.1, sweep_points=5,
                               output=str(tmp_path / "g.csv"), workers=1)
        summary = run_experiment(cfg)
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


class TestSweepPool:
    """One sweep pool per process, kept while ``workers`` is unchanged."""

    def test_new_worker_count_replaces_the_pool(self, tmp_path, fresh_pool):
        pooled_sweep_rows(tmp_path / "two.csv", 2)
        old = cli_mod._POOL[1]
        pooled_sweep_rows(tmp_path / "three.csv", 3)
        assert cli_mod._POOL[0] == 3 and cli_mod._POOL[1] is not old
        with pytest.raises(RuntimeError, match="shutdown"):
            old.submit(os.getpid)

    def test_broken_pool_is_replaced(self, tmp_path, fresh_pool):
        serial = pooled_sweep_rows(tmp_path / "serial.csv", 1)
        pooled_sweep_rows(tmp_path / "before.csv", 2)
        broken = cli_mod._POOL[1]
        with pytest.raises(BrokenProcessPool):
            broken.submit(os._exit, 1).result(timeout=60)
        rows = pooled_sweep_rows(tmp_path / "after.csv", 2)
        assert cli_mod._POOL[1] is not broken
        assert rows == serial

    def test_interrupted_sweep_cancels_its_queued_points(self, tmp_path, fresh_pool,
                                                         monkeypatch):
        """An exception out of the collection loop cancels the points that
        have not started, so the next sweep does not queue behind them."""
        submitted = []
        submit = cli_mod._submit_points

        def recording(workers, points):
            submitted.extend(submit(workers, points))
            return submitted

        def interrupted(future, timeout=None):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli_mod, "_submit_points", recording)
        monkeypatch.setattr(Future, "result", interrupted)
        with pytest.raises(KeyboardInterrupt):
            pooled_sweep_rows(tmp_path / "cut.csv", 2, points=10)
        monkeypatch.undo()
        assert len(submitted) == 20
        # the pool moves up to workers + 1 points into its call queue, where
        # they can no longer be cancelled
        assert sum(f.cancelled() for f in submitted) >= 10
        rows = pooled_sweep_rows(tmp_path / "next.csv", 2)
        assert all(np.isfinite(r["fidelity"]) for r in rows)

    def test_workers_exit_with_the_interpreter(self, tmp_path):
        code = (
            "import multiprocessing, sys\n"
            "from cavityfredkin.cli import ExperimentConfig, run_experiment\n"
            "run_experiment(ExperimentConfig(task='sweep', scheme='dispersive',\n"
            "    sweep_parameter='Omega_over_g', sweep_start=0.09, sweep_stop=0.1,\n"
            "    sweep_points=2, workers=2, output=sys.argv[1]))\n"
            "print(*[p.pid for p in multiprocessing.active_children()])\n"
        )
        src = os.path.dirname(os.path.dirname(cavityfredkin.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", code, str(tmp_path / "s.csv")],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        pids = [int(tok) for tok in done.stdout.split()]
        assert len(pids) == 2
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)


#: the arguments of a two-point drive sweep
DRIVE_SWEEP = ["--sweep_parameter", "Omega_over_g", "--sweep_start", "0.09",
               "--sweep_stop", "0.1", "--sweep_points", "2"]


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

    def test_unparsable_drive_exits_2(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        rc = main(["fidelity", "--Omega_over_g", "abc", "--output", str(out)])
        assert rc == 2
        assert "'Omega_over_g'" in capsys.readouterr().err
        assert not out.exists()

    def test_kappa_sweep_past_the_dt_rule_exits_2_without_output(self, tmp_path, capsys):
        """The decay half of the dt rule is checked at the sweep's largest
        rate, 500 g: decay scale 6 * 500 = 3000 on the 68-state space."""
        out = tmp_path / "never.csv"
        rc = main(["sweep", "--scheme", "dispersive", "--Omega_over_g", "0.1",
                   "--sweep_parameter", "kappa_over_g", "--sweep_start", "0",
                   "--sweep_stop", "500", "--sweep_points", "2", "--output", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "'dt_over_invg'" in err
        assert "decay scale 3e+03 (kappa = 500, gamma = 0); need dt <= 0.000928" in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["fidelity", "--scheme", "resonant", "--Delta_over_g", "0.5"],
         "'Delta_over_g': the resonant scheme requires Delta_over_g = 0, got 0.5"),
        (["sweep", "--scheme", "resonant", "--Delta_over_g", "0.5", *DRIVE_SWEEP],
         "'Delta_over_g': the resonant scheme requires Delta_over_g = 0, got 0.5"),
        (["populations", "--scheme", "resonant", "--Delta_over_g", "0.5"],
         "'Delta_over_g': the resonant scheme requires Delta_over_g = 0, got 0.5"),
        (["fidelity", "--scheme", "dispersive", "--Delta_over_g", "0"],
         "'Delta_over_g': the dispersive scheme requires Delta_over_g > 0, got 0"),
        (["sweep", "--Delta_over_g", "-1", *DRIVE_SWEEP],
         "'Delta_over_g': the resonant scheme requires Delta_over_g = 0, got -1"),
        (["fidelity", "--dt_over_invg", "0.1"],
         "'dt_over_invg': dt = 0.1 too large for Hamiltonian scale 4.01"),
        (["sweep", "--scheme", "resonant,dispersive", "--dt_over_invg", "0.1", *DRIVE_SWEEP],
         "'dt_over_invg': dt = 0.1 too large for Hamiltonian scale 4.17"),
        (["fidelity", "--dt_over_invg", "0"], "'dt_over_invg': dt must be positive"),
        (["fidelity", "--kappa_over_g", "nan"], "'kappa_over_g': cannot parse 'nan': must be finite"),
        (["fidelity", "--gamma_over_g", "nan"], "'gamma_over_g': cannot parse 'nan': must be finite"),
        (["fidelity", "--Omega_over_g", "nan"],
         "'Omega_over_g': cannot parse 'nan': need finite drive strengths"),
        (["sweep", "--Omega_over_g", ",", "--sweep_parameter", "kappa_over_g", "--sweep_start",
          "0", "--sweep_stop", "0.01", "--sweep_points", "2"],
         "'Omega_over_g': cannot parse ',': need finite drive strengths"),
        (["fidelity", "--dt_over_invg", "nan"], "'dt_over_invg': cannot parse 'nan': must be finite"),
        (["fidelity", "--J_over_g", "nan"], "'J_over_g': cannot parse 'nan': must be finite"),
        (["fidelity", "--scheme", "dispersive", "--Delta_over_g", "nan"],
         "'Delta_over_g': cannot parse 'nan': must be finite"),
        (["fidelity", "--kappa_over_g", "inf"], "'kappa_over_g': cannot parse 'inf': must be finite"),
    ], ids=["resonant-delta-fidelity", "resonant-delta-sweep", "resonant-delta-populations",
            "dispersive-zero-delta", "negative-delta", "dt-fidelity", "dt-sweep", "zero-dt",
            "nan-kappa", "nan-gamma", "nan-drive", "no-drive", "nan-dt", "nan-J", "nan-delta", "inf-kappa"])
    def test_bad_gate_input_exits_2_without_output(self, tmp_path, capsys, argv, message):
        """A detuning that does not suit the scheme, a dt that breaks the dt
        rule at any point, and a value that is not finite are configuration
        errors: no point runs and no file is written (they used to run, or
        write NaN rows and exit 0, or name another field)."""
        rc = main(argv + ["--output", str(tmp_path / "never.csv")])
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_dropped_space_key_exits_2(self, tmp_path, capsys):
        """Every gate runs on build_space(2, 2): a file that still sets a
        space cap names it as an unknown key."""
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text("sector_cap = 2\n")
        rc = main(["fidelity", "--config", str(cfg_file),
                   "--output", str(tmp_path / "never.csv")])
        assert rc == 2
        assert "'sector_cap': unknown configuration key" in capsys.readouterr().err
        with pytest.raises(SystemExit) as done:
            main(["fidelity", "--sector_cap", "1", "--output", str(tmp_path / "never.csv")])
        assert done.value.code == 2
        assert "unrecognized arguments: --sector_cap 1" in capsys.readouterr().err
        assert not (tmp_path / "never.csv").exists()

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
