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
metrics = tracer.layer_metrics()
print(json.dumps({{"finite": all(math.isfinite(v) for v, _ in metrics.values()),
                  "metrics": {{k: v for k, (v, _) in metrics.items()}},
                  "counts": dict(tracer.counts)}}))
"""


def test_traced_fidelity_calls_report_finite_layer_metrics(tmp_path):
    script = SCRIPT.format(src=os.path.join(ROOT, "src"), bench=os.path.join(ROOT, "gatebench"),
                           out=str(tmp_path / "fidelity.csv"))
    done = subprocess.run([sys.executable, "-c", script], cwd=str(tmp_path),
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["finite"], report["metrics"]
    counts = report["counts"]
    assert counts["cli.run_experiment"] == 2
    assert counts["propagate.evolve_states_final"] == 1
    assert counts["propagate.evolve_density_final"] == 1
    assert counts["propagate.LindbladGenerator"] == 1
    assert counts["propagate.LindbladGenerator.evolve"] == 1
    assert report["metrics"]["propagate.power_gflop"] > 0
