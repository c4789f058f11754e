"""The benchmark tracer in gatebench/tracing.py wraps package functions by
name and reads their argument names and results.  This smoke test runs it
in a fresh interpreter, so that a refactor which renames what it reads
fails here instead of in a traced benchmark run."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPT = """
import json, math, sys
sys.path[:0] = [{src!r}, {bench!r}]
import tracing

tracer = tracing.Tracer()
tracing.install(tracer)
from cavityfredkin.cli import ExperimentConfig, run_experiment  # the wrapped entry
for extra in ({{"scheme": "resonant"}},
              {{"scheme": "dispersive", "kappa_over_g": 0.005, "gamma_over_g": 0.005}}):
    run_experiment(ExperimentConfig(task="fidelity", Omega_over_g="0.1",
                                    output={out!r}, **extra))
fidelity_counts = dict(tracer.counts)
# the single-input entries, whose observer reads Trajectory.metadata
import numpy as np
from cavityfredkin.hilbert import build_space, qubit_embedding
from cavityfredkin.model import PhysParams, full_hamiltonian
from cavityfredkin.propagate import DecayParams, evolve_density, evolve_state
space = build_space(1, 1)
h = full_hamiltonian(space, PhysParams.resonant(), 0.05, -0.05)
psi = qubit_embedding(space, 6)
evolve_state(h, psi, 2.0, n_samples=5)
evolve_density(h, DecayParams(kappa=0.01), np.outer(psi, psi.conj()), 2.0, n_samples=5)
for extra in ({{"scheme": "resonant"}},
              {{"scheme": "dispersive", "kappa_over_g": 0.005, "gamma_over_g": 0.005}}):
    run_experiment(ExperimentConfig(task="populations", Omega_over_g="0.1",
                                    output={pops!r}, **extra))
metrics = tracer.layer_metrics()
print(json.dumps({{"finite": all(math.isfinite(v) for v, _ in metrics.values()),
                  "metrics": {{k: v for k, (v, _) in metrics.items()}},
                  "fidelity_counts": fidelity_counts,
                  "counts": dict(tracer.counts)}}))
"""


def test_traced_fidelity_calls_report_finite_layer_metrics(tmp_path):
    script = SCRIPT.format(src=os.path.join(ROOT, "src"), bench=os.path.join(ROOT, "gatebench"),
                           out=str(tmp_path / "fidelity.csv"), pops=str(tmp_path / "pops.csv"))
    done = subprocess.run([sys.executable, "-c", script], cwd=str(tmp_path),
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["finite"], report["metrics"]
    counts = report["fidelity_counts"]
    assert counts["cli.run_experiment"] == 2
    assert counts["propagate.evolve_states_final"] == 1
    assert counts["propagate.evolve_density_final"] == 1
    assert counts["propagate.LindbladGenerator"] == 1
    assert counts["propagate.LindbladGenerator.evolve"] == 1
    counts = report["counts"]
    assert counts["cli.run_experiment"] == 4
    assert counts["propagate.evolve_state"] == 1
    assert counts["propagate.evolve_density"] == 1
    # the fidelity call, evolve_density and the lossy populations run each
    # build one generator; the populations run evolves its 8 inputs in turn
    assert counts["propagate.LindbladGenerator"] == 3
    assert counts["propagate.LindbladGenerator.evolve"] == 1 + 1 + 8
    assert counts["propagate.population_series"] == 16
    assert report["metrics"]["propagate.power_gflop"] > 0
    assert report["metrics"]["propagate.steps"] > 0
