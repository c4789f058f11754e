"""Workload inputs, drawn from the seed.

A run repeats whole rounds; round i of a run with seed s is a fixed list of
``run_experiment`` configurations drawn from ``default_rng([s, i])``.  The
seed draws decay rates, preset choices and call order, and places drive
strengths inside bands narrow enough (at most +-1 %) that the cost of a
round does not depend on the seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

WORKLOADS = ("coherent_sweep", "lossy_resonant", "lossy_dispersive", "populations")

#: drives of the lossy calls: the resonant presets' operating point, and the
#: strongest dispersive drive of the paper's decay sweep (2^15 RK4 steps,
#: the cheapest of its dispersive points; the presets' 0.02 g needs 2^20)
LOSSY_DRIVE = {"resonant": 0.05, "dispersive": 0.1}
#: kappa = gamma draws, in units of g
LOSSY_KAPPA = {"resonant": (0.008, 0.012), "dispersive": (0.002, 0.01)}
#: the lossy calls that may run a measured-platform preset instead of a draw
LOSSY_PRESETS = {"resonant": ("toroidal", "nanocavity"), "dispersive": ()}
#: drive sweep bounds: start, stop and grid size of one sweep call
SWEEP_START = (0.0495, 0.0505)
SWEEP_STOP = (0.099, 0.101)
SWEEP_POINTS = 3
#: drive bands of the population runs
POPULATION_DRIVE = {"resonant": (0.0995, 0.1005), "dispersive": (0.0697, 0.0703)}


@dataclass(frozen=True)
class Op:
    """One ``run_experiment`` call: the configuration (without ``output``)
    and what the checker needs to know about its inputs."""

    config: dict
    scheme: str = ""
    drive: float = 0.0
    kappa: float = 0.0
    gamma: float = 0.0
    preset: str = ""


def _lossy(rng, scheme: str) -> Op:
    drive = LOSSY_DRIVE[scheme]
    config = {"task": "fidelity", "scheme": scheme, "Omega_over_g": str(drive)}
    choice = str(rng.choice([*LOSSY_PRESETS[scheme], "kappa"]))
    if choice != "kappa":
        return Op({**config, "preset": choice}, scheme, drive, preset=choice)
    kappa = float(rng.uniform(*LOSSY_KAPPA[scheme]))
    return Op({**config, "kappa_over_g": kappa, "gamma_over_g": kappa},
              scheme, drive, kappa, kappa)


def round_ops(workload: str, seed: int, index: int, workers: int) -> list:
    """The configurations of round ``index``, in call order."""
    rng = np.random.default_rng([seed % 2**32, index])
    if workload == "coherent_sweep":
        return [Op({"task": "sweep", "scheme": "resonant,dispersive",
                    "sweep_parameter": "Omega_over_g",
                    "sweep_start": float(rng.uniform(*SWEEP_START)),
                    "sweep_stop": float(rng.uniform(*SWEEP_STOP)),
                    "sweep_points": SWEEP_POINTS, "workers": workers})]
    if workload == "lossy_resonant":
        return [_lossy(rng, "resonant")]
    if workload == "lossy_dispersive":
        return [_lossy(rng, "dispersive")]
    if workload == "populations":
        ops = []
        for scheme in ("resonant", "dispersive"):
            drive = float(rng.uniform(*POPULATION_DRIVE[scheme]))
            ops.append(Op({"task": "populations", "scheme": scheme,
                           "Omega_over_g": str(drive)}, scheme, drive))
        return [ops[i] for i in rng.permutation(len(ops))]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
