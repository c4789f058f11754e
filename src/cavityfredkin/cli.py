"""Experiment runner: single gate runs, parameter sweeps, CSV/JSON output.

Configuration is a flat key = value text file plus command-line overrides;
all rates are ratios to g (g = 1 internally).  Outputs carry the fully
resolved configuration as a provenance header, and rerunning a config
reproduces its files byte for byte except for the wall-clock diagnostic
column.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np

from cavityfredkin import __version__
from cavityfredkin.channel import (
    average_gate_fidelity,
    reconstruct_channel,
    scheme_hamiltonian,
)
from cavityfredkin.hilbert import build_space, qubit_embedding
from cavityfredkin.model import PhysParams
from cavityfredkin.propagate import (
    DecayParams,
    evolve_density,
    evolve_states,
    population_series,
)
from cavityfredkin.pulses import DriveSchedule, dispersive_gate_time, resonant_gate_time

#: measured cavity platforms, as ratios to the respective g
PRESETS = {
    "toroidal": {"kappa_over_g": 3.5 / 750.0, "gamma_over_g": 2.62 / 750.0},
    "nanocavity": {"kappa_over_g": 4e5 / 2.5e9, "gamma_over_g": 1.6e7 / 2.5e9},
}

#: default drive strength per scheme (the peak-fidelity operating points)
DEFAULT_DRIVE = {"resonant": 0.05, "dispersive": 0.02}
DEFAULT_PULSE = {"resonant": "adiabatic", "dispersive": "constant"}
DEFAULT_DELTA = {"resonant": 0.0, "dispersive": 1.0}

SWEEPABLE = ("Omega_over_g", "kappa_over_g")


class ConfigError(ValueError):
    def __init__(self, field_name: str, message: str):
        self.field_name = field_name
        super().__init__(f"field {field_name!r}: {message}")


@dataclass
class ExperimentConfig:
    task: str = "fidelity"
    scheme: str = "resonant"  # comma-separated list allowed for sweeps
    J_over_g: float = 1.0
    Delta_over_g: Optional[float] = None  # default: 0 resonant, 1 dispersive
    Omega_over_g: str = ""  # default per scheme; comma list allowed for sweeps
    kappa_over_g: float = 0.0
    gamma_over_g: float = 0.0
    gamma_equals_kappa: bool = False
    pulse: str = ""  # default: adiabatic resonant, constant dispersive
    fock_cap: int = 2
    sector_cap: Optional[int] = 2
    dt_over_invg: float = 0.01
    sweep_parameter: str = ""
    sweep_start: float = 0.0
    sweep_stop: float = 0.0
    sweep_points: int = 0
    preset: str = ""
    output: str = ""
    json_summary: str = ""
    workers: int = 2

    # -- parsing -------------------------------------------------------
    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        values = {}
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                sep = "=" if "=" in line else (":" if ":" in line else None)
                if sep is None:
                    raise ConfigError(f"line {lineno}", f"expected key = value, got {raw.strip()!r}")
                key, _, val = line.partition(sep)
                values[key.strip()] = val.strip()
        return cls().updated(values)

    def updated(self, values: dict) -> "ExperimentConfig":
        known = {f.name for f in fields(self)}
        converted = {}
        for key, val in values.items():
            if key not in known:
                raise ConfigError(key, "unknown configuration key")
            if val is None:
                continue
            converted[key] = _convert(key, val)
        return replace(self, **converted)

    # -- resolution ----------------------------------------------------
    def schemes(self) -> list:
        return [s.strip() for s in self.scheme.split(",") if s.strip()]

    def drives(self, scheme: str) -> list:
        if not str(self.Omega_over_g):
            return [DEFAULT_DRIVE[scheme]]
        out = []
        for tok in str(self.Omega_over_g).split(","):
            tok = tok.strip()
            if tok:
                out.append(float(tok))
        return out

    def resolved(self) -> "ExperimentConfig":
        """Validated copy with every scheme-dependent default filled in."""
        cfg = self
        if cfg.preset:
            if cfg.preset not in PRESETS:
                raise ConfigError("preset", f"unknown preset {cfg.preset!r}; "
                                  f"choose from {sorted(PRESETS)}")
            cfg = replace(cfg, **PRESETS[cfg.preset])
        if cfg.task not in ("populations", "fidelity", "sweep"):
            raise ConfigError("task", f"unknown task {cfg.task!r}")
        schemes = cfg.schemes()
        if not schemes or any(s not in ("resonant", "dispersive") for s in schemes):
            raise ConfigError("scheme", f"must be resonant and/or dispersive, got {cfg.scheme!r}")
        if cfg.task != "sweep" and len(schemes) > 1:
            raise ConfigError("scheme", "a single scheme is required outside sweeps")
        if len(schemes) == 1:
            s = schemes[0]
            if cfg.Delta_over_g is None:
                cfg = replace(cfg, Delta_over_g=DEFAULT_DELTA[s])
            if not cfg.pulse:
                cfg = replace(cfg, pulse=DEFAULT_PULSE[s])
            if not str(cfg.Omega_over_g):
                cfg = replace(cfg, Omega_over_g=str(DEFAULT_DRIVE[s]))
            if s == "dispersive" and cfg.pulse == "adiabatic":
                raise ConfigError("pulse", "the dispersive scheme uses a constant drive")
            if cfg.pulse not in ("adiabatic", "constant"):
                raise ConfigError("pulse", f"unknown pulse {cfg.pulse!r}")
        for name in ("J_over_g", "kappa_over_g", "gamma_over_g", "dt_over_invg"):
            if getattr(cfg, name) < 0:
                raise ConfigError(name, "must be >= 0")
        if cfg.dt_over_invg == 0:
            raise ConfigError("dt_over_invg", "must be positive")
        for s in schemes:
            for om in cfg.drives(s):
                if om <= 0:
                    raise ConfigError("Omega_over_g", "drive strengths must be positive")
        if cfg.fock_cap < 1:
            raise ConfigError("fock_cap", "must be >= 1")
        if cfg.sector_cap is not None and cfg.sector_cap < 0:
            raise ConfigError("sector_cap", "must be >= 0 or none")
        if cfg.task != "sweep":
            for sch in schemes:
                if len(cfg.drives(sch)) > 1:
                    raise ConfigError("Omega_over_g",
                                      "a single drive strength is required outside sweeps")
        if cfg.task == "sweep":
            if cfg.sweep_parameter not in SWEEPABLE:
                raise ConfigError("sweep_parameter", f"must be one of {SWEEPABLE}")
            if cfg.sweep_parameter == "Omega_over_g" and "," in str(cfg.Omega_over_g):
                raise ConfigError("Omega_over_g",
                                  "drive lists cannot be combined with a drive sweep")
            if not cfg.sweep_points >= 2:
                raise ConfigError("sweep_points", "need at least 2 grid points")
            if not cfg.sweep_stop > cfg.sweep_start:
                raise ConfigError("sweep_stop", "sweep range must be ascending")
            if cfg.sweep_parameter == "Omega_over_g" and cfg.sweep_start <= 0:
                raise ConfigError("sweep_start", "drive strengths must be positive")
        if cfg.workers < 1:
            raise ConfigError("workers", "must be >= 1")
        if not cfg.output:
            cfg = replace(cfg, output=f"{cfg.task}.csv")
        return cfg


def _convert(key, val):
    text = str(val).strip()
    try:
        if key in ("scheme", "task", "pulse", "sweep_parameter", "preset",
                   "output", "json_summary", "Omega_over_g"):
            return text
        if key == "sector_cap" or key == "Delta_over_g":
            if text.lower() in ("none", ""):
                return None
            return int(text) if key == "sector_cap" else float(text)
        if key == "gamma_equals_kappa":
            if isinstance(val, bool):
                return val
            if text.lower() in ("true", "1", "yes"):
                return True
            if text.lower() in ("false", "0", "no"):
                return False
            raise ValueError("expected a boolean")
        if key in ("fock_cap", "sweep_points", "workers"):
            return int(text)
        return float(text)
    except ValueError as exc:
        raise ConfigError(key, f"cannot parse {val!r}: {exc}") from None


# ---------------------------------------------------------------------------
# experiment assembly
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


def _provenance(cfg: ExperimentConfig) -> list:
    lines = [f"# cavityfredkin {__version__}"]
    for f in fields(cfg):
        lines.append(f"# {f.name} = {_fmt(getattr(cfg, f.name))}")
    return lines


def _schedule_for(scheme: str, pulse: str, omega: float) -> DriveSchedule:
    if scheme == "dispersive":
        return DriveSchedule.constant(omega, dispersive_gate_time(omega))
    if pulse == "adiabatic":
        return DriveSchedule.adiabatic(omega)
    return DriveSchedule.constant(omega, resonant_gate_time(omega))


def _params_for(cfg: ExperimentConfig, scheme: str) -> PhysParams:
    delta = cfg.Delta_over_g if cfg.Delta_over_g is not None else DEFAULT_DELTA[scheme]
    return PhysParams(g=1.0, J=cfg.J_over_g, delta=delta)


def _fidelity_point(cfg_dict: dict) -> dict:
    """One fidelity evaluation; module-level so worker processes can run it."""
    cfg = ExperimentConfig(**cfg_dict)
    scheme = cfg.scheme
    omega = float(cfg.Omega_over_g)
    pulse = cfg.pulse or DEFAULT_PULSE[scheme]
    decay = DecayParams(kappa=cfg.kappa_over_g, gamma=cfg.gamma_over_g)
    space = build_space(cfg.fock_cap, cfg.sector_cap)
    t0 = time.perf_counter()
    ch = reconstruct_channel(
        scheme,
        _params_for(cfg, scheme),
        _schedule_for(scheme, pulse, omega),
        decay,
        space=space,
        dt=cfg.dt_over_invg,
    )
    fid = average_gate_fidelity(ch)
    return {
        "scheme": scheme,
        "drive": omega,
        "fidelity": fid,
        "leakage": ch.metadata["leakage"],
        "trace_drift": ch.metadata["trace_drift"],
        "seconds": time.perf_counter() - t0,
    }


FIDELITY_COLUMNS = ("param", "scheme", "drive", "fidelity", "leakage", "trace_drift", "seconds")


def _write_rows(path: str, cfg: ExperimentConfig, columns, rows):
    with open(path, "w") as fh:
        for line in _provenance(cfg):
            fh.write(line + "\n")
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row[c]) for c in columns) + "\n")


def run_populations(cfg: ExperimentConfig) -> dict:
    scheme = cfg.schemes()[0]
    omega = cfg.drives(scheme)[0]
    params = _params_for(cfg, scheme)
    schedule = _schedule_for(scheme, cfg.pulse, omega)
    decay = DecayParams(kappa=cfg.kappa_over_g, gamma=cfg.gamma_over_g)
    space = build_space(cfg.fock_cap, cfg.sector_cap)
    h = scheme_hamiltonian(space, params, schedule)

    qubit_atoms = ["".join("01"[b] for b in ((q >> 1) & 1, (q >> 2) & 1, q & 1))
                   for q in range(8)]
    targets = [(a, "000") for a in qubit_atoms]
    stem, dot, ext = cfg.output.rpartition(".")
    if not dot:
        stem, ext = cfg.output, "csv"
    kets = np.stack([qubit_embedding(space, q) for q in range(8)], axis=1)
    if decay.dissipative:
        # one input at a time: eight sampled density series would hold ~300 MB
        trajs = (evolve_density(h, decay, np.outer(psi, psi.conj()),
                                schedule.total_time, dt=cfg.dt_over_invg)
                 for psi in kets.T)
    else:
        trajs = evolve_states(h, kets, schedule.total_time, dt=cfg.dt_over_invg)
    files = []
    for q, traj in enumerate(trajs):
        pops = population_series(traj, targets)
        path = f"{stem}_from_q{q}.{ext}"
        with open(path, "w") as fh:
            for line in _provenance(cfg):
                fh.write(line + "\n")
            fh.write("t_in_invg," + ",".join(f"p_q{k}" for k in range(8)) + "\n")
            series = [pops[f"|{a}>|000>"] for a in qubit_atoms]
            for i, t in enumerate(traj.times):
                fh.write(_fmt(float(t)) + "," + ",".join(_fmt(float(s[i])) for s in series) + "\n")
        files.append(path)
    return {"task": "populations", "files": files, "gate_time": schedule.total_time}


def run_fidelity(cfg: ExperimentConfig) -> dict:
    scheme = cfg.schemes()[0]
    omega = cfg.drives(scheme)[0]
    point = _fidelity_point({**_cfg_dict(cfg), "scheme": scheme, "Omega_over_g": str(omega)})
    row = {"param": omega, **point}
    _write_rows(cfg.output, cfg, FIDELITY_COLUMNS, [row])
    return {"task": "fidelity", "files": [cfg.output], **point}


def run_sweep(cfg: ExperimentConfig) -> dict:
    grid = np.linspace(cfg.sweep_start, cfg.sweep_stop, cfg.sweep_points)
    jobs = []
    for value in grid:
        for scheme in cfg.schemes():
            for omega in cfg.drives(scheme):
                point_cfg = {**_cfg_dict(cfg), "scheme": scheme,
                             "Omega_over_g": str(omega)}
                if cfg.sweep_parameter == "Omega_over_g":
                    point_cfg["Omega_over_g"] = str(float(value))
                else:
                    point_cfg["kappa_over_g"] = float(value)
                    if cfg.gamma_equals_kappa:
                        point_cfg["gamma_over_g"] = float(value)
                jobs.append((float(value), point_cfg))

    results = [None] * len(jobs)
    if cfg.workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            futures = [pool.submit(_fidelity_point, pc) for _, pc in jobs]
            for i, fut in enumerate(futures):
                try:
                    results[i] = fut.result()
                except Exception as exc:  # per-point failure: record, continue
                    results[i] = _failed_point(jobs[i][1], exc)
    else:
        for i, (_, pc) in enumerate(jobs):
            try:
                results[i] = _fidelity_point(pc)
            except Exception as exc:
                results[i] = _failed_point(pc, exc)

    rows = [{"param": val, **res} for (val, _), res in zip(jobs, results)]
    rows.sort(key=lambda r: (r["param"], r["scheme"], r["drive"]))
    _write_rows(cfg.output, cfg, FIDELITY_COLUMNS, rows)
    return {"task": "sweep", "files": [cfg.output], "rows": rows}


def _failed_point(point_cfg: dict, exc: Exception) -> dict:
    print(f"sweep point failed ({point_cfg['scheme']}, "
          f"Omega={point_cfg['Omega_over_g']}): {exc}", file=sys.stderr)
    return {
        "scheme": point_cfg["scheme"],
        "drive": float(point_cfg["Omega_over_g"]),
        "fidelity": float("nan"),
        "leakage": float("nan"),
        "trace_drift": float("nan"),
        "seconds": float("nan"),
    }


def _cfg_dict(cfg: ExperimentConfig) -> dict:
    return {f.name: getattr(cfg, f.name) for f in fields(cfg)}


def run_experiment(config: ExperimentConfig) -> dict:
    """Run the configured task; returns the summary record (also written as
    JSON when json_summary is set)."""
    cfg = config.resolved()
    runner = {"populations": run_populations, "fidelity": run_fidelity,
              "sweep": run_sweep}[cfg.task]
    summary = runner(cfg)
    summary["config"] = _cfg_dict(cfg)
    if cfg.json_summary:
        with open(cfg.json_summary, "w") as fh:
            json.dump(summary, fh, indent=2, default=_json_default)
            fh.write("\n")
    return summary


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def sweep(config: ExperimentConfig, parameter: str, grid) -> dict:
    """Programmatic sweep entry: installs the grid bounds, then runs.

    A configuration records a grid as start, stop and point count, so
    ``grid`` must be ascending and evenly spaced: it has to equal
    ``np.linspace(grid[0], grid[-1], len(grid))`` to 1e-12 relative to its
    largest value.  Any other grid raises ValueError.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or len(grid) < 2 or not grid[-1] > grid[0]:
        raise ValueError("grid must be an ascending 1-D sequence of at least 2 values")
    spaced = np.linspace(grid[0], grid[-1], len(grid))
    if np.abs(grid - spaced).max() > 1e-12 * np.abs(grid).max():
        raise ValueError(
            f"grid {grid.tolist()} is not evenly spaced; a sweep runs "
            f"np.linspace(start, stop, points), here {spaced.tolist()}"
        )
    cfg = replace(
        config,
        task="sweep",
        sweep_parameter=parameter,
        sweep_start=float(grid[0]),
        sweep_stop=float(grid[-1]),
        sweep_points=len(grid),
    )
    return run_experiment(cfg)


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def _add_config_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", help="flat key = value configuration file")
    for f in fields(ExperimentConfig):
        if f.name == "task":
            continue
        p.add_argument(f"--{f.name}", dest=f.name, default=None,
                       help=f"override config key {f.name}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cavityfredkin",
        description="Fredkin-gate simulator for coupled three-cavity arrays",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for task, desc in (
        ("populations", "time series of register populations for all 8 inputs"),
        ("fidelity", "average gate fidelity of one configuration"),
        ("sweep", "fidelity over a parameter grid"),
    ):
        p = sub.add_parser(task, help=desc)
        _add_config_flags(p)
    sub.add_parser("presets", help="print the measured-platform decay presets")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "presets":
        print("preset      kappa_over_g    gamma_over_g    default drives")
        for name, vals in PRESETS.items():
            print(f"{name:<11} {_fmt(vals['kappa_over_g']):<15} "
                  f"{_fmt(vals['gamma_over_g']):<15} "
                  f"resonant {DEFAULT_DRIVE['resonant']}g, "
                  f"dispersive {DEFAULT_DRIVE['dispersive']}g")
        return 0
    try:
        cfg = (ExperimentConfig.from_file(args.config) if args.config
               else ExperimentConfig())
        overrides = {f.name: getattr(args, f.name) for f in fields(ExperimentConfig)
                     if f.name != "task" and getattr(args, f.name, None) is not None}
        cfg = cfg.updated(overrides)
        cfg = replace(cfg, task=args.command)
        summary = run_experiment(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    if summary["task"] == "fidelity":
        print(f"fidelity = {_fmt(summary['fidelity'])}  "
              f"(leakage {_fmt(summary['leakage'])}, "
              f"trace_drift {_fmt(summary['trace_drift'])}, "
              f"{summary['seconds']:.1f} s)")
    for path in summary.get("files", []):
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
