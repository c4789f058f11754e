"""Experiment runner: single gate runs, parameter sweeps, CSV/JSON output.

Configuration is a flat key = value text file plus command-line overrides;
all rates are ratios to g (g = 1 internally).  Outputs carry the resolved
configuration as a provenance header, and rerunning a config reproduces its
files byte for byte except for the wall-clock diagnostic column.  Each
scheme's point is resolved by :meth:`ExperimentConfig.for_scheme`, so the
header of a sweep over several schemes leaves Delta, pulse and drive unset.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields, replace
from functools import partial
from typing import Optional

import numpy as np

from cavityfredkin import __version__
from cavityfredkin.channel import (
    average_gate_fidelity,
    reconstruct_channel,
    scheme_hamiltonian,
)
from cavityfredkin.hilbert import build_space, qubit_embedding, register_label
from cavityfredkin.model import PhysParams
from cavityfredkin.propagate import (
    DecayParams,
    evolve_densities,
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
        known = {f.name: f for f in fields(self)}
        converted = {}
        for key, val in values.items():
            if key not in known:
                raise ConfigError(key, "unknown configuration key")
            if val is not None:
                converted[key] = _convert(known[key], val)
        return replace(self, **converted)

    # -- resolution ----------------------------------------------------
    def schemes(self) -> list:
        return [s.strip() for s in self.scheme.split(",") if s.strip()]

    def drives(self) -> list:
        return [float(tok) for tok in str(self.Omega_over_g).split(",") if tok.strip()]

    def for_scheme(self, scheme: str, **values) -> "ExperimentConfig":
        """Copy for one scheme with ``values`` set, its Delta, pulse and drive
        defaults filled in and its pulse checked: the only place either happens."""
        cfg = replace(self, scheme=scheme, **values)
        cfg = replace(
            cfg,
            Delta_over_g=DEFAULT_DELTA[scheme] if cfg.Delta_over_g is None else cfg.Delta_over_g,
            pulse=cfg.pulse or DEFAULT_PULSE[scheme],
            Omega_over_g=cfg.Omega_over_g if str(cfg.Omega_over_g) else str(DEFAULT_DRIVE[scheme]),
        )
        if scheme == "dispersive" and cfg.pulse == "adiabatic":
            raise ConfigError("pulse", "the dispersive scheme uses a constant drive")
        if cfg.pulse not in ("adiabatic", "constant"):
            raise ConfigError("pulse", f"unknown pulse {cfg.pulse!r}")
        return cfg

    def resolved(self) -> "ExperimentConfig":
        """Validated copy.  A single-scheme configuration is resolved for its
        scheme; a sweep over several schemes leaves Delta, pulse and drive
        unset, and each of its points is resolved for its own scheme."""
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
        points = [cfg.for_scheme(s) for s in schemes]
        if len(points) == 1:
            cfg = points[0]
        for name in ("J_over_g", "kappa_over_g", "gamma_over_g", "dt_over_invg"):
            if getattr(cfg, name) < 0:
                raise ConfigError(name, "must be >= 0")
        if cfg.dt_over_invg == 0:
            raise ConfigError("dt_over_invg", "must be positive")
        if any(om <= 0 for p in points for om in p.drives()):
            raise ConfigError("Omega_over_g", "drive strengths must be positive")
        if cfg.fock_cap < 1:
            raise ConfigError("fock_cap", "must be >= 1")
        if cfg.sector_cap is not None and cfg.sector_cap < 0:
            raise ConfigError("sector_cap", "must be >= 0 or none")
        if cfg.task != "sweep" and len(cfg.drives()) > 1:
            raise ConfigError("Omega_over_g", "a single drive strength is required outside sweeps")
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
            if cfg.sweep_parameter == "kappa_over_g" and cfg.sweep_start < 0:
                raise ConfigError("sweep_start", "decay rates must be >= 0")
        if cfg.workers < 1:
            raise ConfigError("workers", "must be >= 1")
        if not cfg.output:
            cfg = replace(cfg, output=f"{cfg.task}.csv")
        return cfg


def _convert(f, val):
    """``val`` parsed by the annotation of the field ``f``."""
    text = str(val).strip()
    kind = f.type.removeprefix("Optional[").removesuffix("]")
    try:
        if kind != f.type and text.lower() in ("none", ""):
            return None
        if kind == "bool":
            if text.lower() in ("true", "1", "yes"):
                return True
            if text.lower() in ("false", "0", "no"):
                return False
            raise ValueError("expected a boolean")
        return {"str": str, "int": int, "float": float}[kind](text)
    except ValueError as exc:
        raise ConfigError(f.name, f"cannot parse {val!r}: {exc}") from None


# ---------------------------------------------------------------------------
# experiment assembly
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


#: one population row, time then the 8 register populations; "%.12g" formats
#: a float exactly as _fmt does
_ROW_FORMAT = ",".join(["%.12g"] * 9) + "\n"


def _provenance(cfg: ExperimentConfig) -> str:
    return f"# cavityfredkin {__version__}\n" + "".join(
        f"# {name} = {_fmt(value)}\n" for name, value in asdict(cfg).items())


def _gate(cfg: ExperimentConfig) -> tuple:
    """The space, parameters, drive schedule and decay of one scheme's
    point (a :meth:`ExperimentConfig.for_scheme` copy with one drive)."""
    omega = cfg.drives()[0]
    if cfg.scheme == "dispersive":
        schedule = DriveSchedule.constant(omega, dispersive_gate_time(omega))
    elif cfg.pulse == "adiabatic":
        schedule = DriveSchedule.adiabatic(omega)
    else:
        schedule = DriveSchedule.constant(omega, resonant_gate_time(omega))
    return (build_space(cfg.fock_cap, cfg.sector_cap),
            PhysParams(g=1.0, J=cfg.J_over_g, delta=cfg.Delta_over_g), schedule,
            DecayParams(kappa=cfg.kappa_over_g, gamma=cfg.gamma_over_g))


def _fidelity_point(cfg: ExperimentConfig) -> dict:
    """One fidelity evaluation; module-level so worker processes can run it."""
    space, params, schedule, decay = _gate(cfg)
    t0 = time.perf_counter()
    ch = reconstruct_channel(cfg.scheme, params, schedule, decay, space=space,
                             dt=cfg.dt_over_invg)
    return {
        "scheme": cfg.scheme,
        "drive": schedule.peak,
        "fidelity": average_gate_fidelity(ch),
        "leakage": ch.metadata["leakage"],
        "trace_drift": ch.metadata["trace_drift"],
        "seconds": time.perf_counter() - t0,
    }


FIDELITY_COLUMNS = ("param", "scheme", "drive", "fidelity", "leakage", "trace_drift", "seconds")


def _write_rows(path: str, cfg: ExperimentConfig, columns, rows):
    with open(path, "w") as fh:
        fh.write(_provenance(cfg) + ",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row[c]) for c in columns) + "\n")


def run_populations(cfg: ExperimentConfig) -> dict:
    space, params, schedule, decay = _gate(cfg)
    h = scheme_hamiltonian(space, params, schedule)
    kets = np.stack([qubit_embedding(space, q) for q in range(8)], axis=1)
    if decay.dissipative:
        # one generator, one input at a time: eight sampled density series
        # would hold ~300 MB
        trajs = evolve_densities(h, decay, (np.outer(psi, psi.conj()) for psi in kets.T),
                                 schedule.total_time, dt=cfg.dt_over_invg)
    else:
        trajs = evolve_states(h, kets, schedule.total_time, dt=cfg.dt_over_invg)
    # register states in vacuum, in register order
    targets = ["".join("01"[a] for a in register_label(q)[:3]) for q in range(8)]
    header = _provenance(cfg) + "t_in_invg," + ",".join(f"p_q{k}" for k in range(8)) + "\n"
    # the extension of the file name only: a dot in a directory name is not one
    stem, ext = os.path.splitext(cfg.output)
    files = []
    for q, traj in enumerate(trajs):
        table = np.column_stack([traj.times, *population_series(traj, targets).values()])
        path = f"{stem}_from_q{q}{ext or '.csv'}"
        with open(path, "w") as fh:
            fh.write(header)
            fh.writelines(_ROW_FORMAT % tuple(row) for row in table.tolist())
        files.append(path)
    return {"task": "populations", "files": files, "gate_time": schedule.total_time}


def run_fidelity(cfg: ExperimentConfig) -> dict:
    point = _fidelity_point(cfg)
    _write_rows(cfg.output, cfg, FIDELITY_COLUMNS, [{"param": point["drive"], **point}])
    return {"task": "fidelity", "files": [cfg.output], **point}


def run_sweep(cfg: ExperimentConfig) -> dict:
    drives = {s: cfg.for_scheme(s).drives() for s in cfg.schemes()}
    jobs = []
    for value in np.linspace(cfg.sweep_start, cfg.sweep_stop, cfg.sweep_points).tolist():
        if cfg.sweep_parameter == "Omega_over_g":
            swept = {"Omega_over_g": str(value)}
        else:
            swept = {"kappa_over_g": value}
            if cfg.gamma_equals_kappa:
                swept["gamma_over_g"] = value
        jobs += [(value, cfg.for_scheme(s, **{"Omega_over_g": str(om), **swept}))
                 for s, oms in drives.items() for om in oms]

    calls = [partial(_fidelity_point, point) for _, point in jobs]
    if cfg.workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            calls = [pool.submit(_fidelity_point, point).result for _, point in jobs]
    rows = []
    for (value, point), call in zip(jobs, calls):
        try:
            result = call()
        except Exception as exc:  # per-point failure: record, continue
            print(f"sweep point failed ({point.scheme}, "
                  f"Omega={point.Omega_over_g}): {exc}", file=sys.stderr)
            result = {"scheme": point.scheme, "drive": point.drives()[0],
                      **dict.fromkeys(FIDELITY_COLUMNS[3:], float("nan"))}
        rows.append({"param": value, **result})
    rows.sort(key=lambda r: (r["param"], r["scheme"], r["drive"]))
    _write_rows(cfg.output, cfg, FIDELITY_COLUMNS, rows)
    return {"task": "sweep", "files": [cfg.output], "rows": rows}


def run_experiment(config: ExperimentConfig) -> dict:
    """Run the configured task; returns the summary record (also written as
    JSON when json_summary is set)."""
    cfg = config.resolved()
    runner = {"populations": run_populations, "fidelity": run_fidelity,
              "sweep": run_sweep}[cfg.task]
    summary = runner(cfg)
    summary["config"] = asdict(cfg)
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
