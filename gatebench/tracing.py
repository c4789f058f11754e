"""Span tracing of the simulator's layers from outside the package.

:func:`install` replaces the public entry points of each module (and three
methods) with wrappers that record a span (name, parent, start, end) and
counts in memory.  Every module that imported a wrapped function by name
gets the wrapper too.  The drive amplitude is evaluated several times per
integration step, so its calls are summed into their parent span instead
of each getting a span of its own.

A layer's self time is its span minus the spans of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from collections import Counter, defaultdict

import numpy as np

#: (module, function) pairs wrapped by name
FUNCTIONS = (
    ("hilbert", "build_space"),
    ("hilbert", "qubit_extraction"),
    ("model", "full_hamiltonian"),
    ("model", "antisymmetric_drive"),
    ("propagate", "evolve_state"),
    ("propagate", "evolve_density"),
    ("propagate", "evolve_states_final"),
    ("propagate", "evolve_density_final"),
    ("propagate", "population_series"),
    ("channel", "reconstruct_channel"),
    ("channel", "average_gate_fidelity"),
    ("cli", "run_experiment"),
)
#: (module, class, method, span name) wrapped on the class
METHODS = (
    ("propagate", "LindbladGenerator", "__init__", "propagate.LindbladGenerator"),
    ("propagate", "LindbladGenerator", "evolve", "propagate.LindbladGenerator.evolve"),
    ("pulses", "DriveSchedule", "amplitude", "pulses.amplitude"),
)
AGGREGATED = {"pulses.amplitude"}
ROOT = "cli.run_experiment"


class Tracer:
    """In-memory spans and counters of one traced run."""

    def __init__(self):
        self.spans = []  # [name, parent index or -1, start, end]
        self.stack = []
        self.aggregated = defaultdict(float)  # parent index -> seconds
        self.counts = Counter()
        self.values = defaultdict(float)
        self.channels = []  # (run_experiment call index, channel images)

    def wrap(self, name: str, fn, observe=None):
        signature = inspect.signature(fn)
        spans, stack = self.spans, self.stack

        if name in AGGREGATED:
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = time.perf_counter() - t0
                    self.aggregated[stack[-1] if stack else -1] += dt
                    self.values[name + ".s"] += dt
                    self.counts[name] += 1
            return traced

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, stack[-1] if stack else -1, time.perf_counter(), None])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][3] = time.perf_counter()
            self.counts[name] += 1
            if observe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                observe(self, bound.arguments, result)
            return result
        return traced

    # -- per-layer metrics --------------------------------------------
    def durations(self) -> tuple:
        """(inclusive, self) seconds summed per span name."""
        inclusive, own = defaultdict(float), defaultdict(float)
        child = defaultdict(float)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, parent, start, end) in enumerate(self.spans):
            inclusive[name] += end - start
            own[name] += end - start - child[i] - self.aggregated.get(i, 0.0)
        return inclusive, own

    def layer_metrics(self) -> dict:
        inclusive, own = self.durations()
        calls = max(1, self.counts[ROOT])
        c = self.counts
        v = self.values

        def per_call(x):
            return x / calls

        def ratio(a, b):
            return a / b if b else 0.0

        return {
            "hilbert.build_space.s": (per_call(inclusive["hilbert.build_space"]), "s"),
            "hilbert.qubit_extraction.s": (per_call(inclusive["hilbert.qubit_extraction"]), "s"),
            "hilbert.qubit_extraction.calls": (per_call(c["hilbert.qubit_extraction"]), "count"),
            "model.full_hamiltonian.s": (per_call(inclusive["model.full_hamiltonian"]), "s"),
            "pulses.amplitude.s": (per_call(v["pulses.amplitude.s"]), "s"),
            "pulses.amplitude.calls_per_step": (
                ratio(c["pulses.amplitude"], v["driven_steps"]), "calls/step"),
            "propagate.evolve_states_final.s": (
                per_call(inclusive["propagate.evolve_states_final"]), "s"),
            "propagate.evolve_density_final.s": (
                per_call(inclusive["propagate.evolve_density_final"]), "s"),
            "propagate.evolve_density_final.operators": (
                ratio(v["operators"], c["propagate.evolve_density_final"]), "count"),
            "propagate.LindbladGenerator.s": (
                per_call(inclusive["propagate.LindbladGenerator"]), "s"),
            "propagate.power_gflop": (per_call(v["power_flop"]) / 1e9, "GFLOP-computed"),
            "propagate.chain_dim_max": (v["chain_dim_max"], "count"),
            "propagate.evolve_state.s": (per_call(inclusive["propagate.evolve_state"]), "s"),
            "propagate.evolve_state.calls_per_call": (per_call(c["propagate.evolve_state"]), "count"),
            "propagate.steps": (per_call(v["trajectory_steps"]), "steps"),
            "propagate.population_series.s": (
                per_call(inclusive["propagate.population_series"]), "s"),
            "channel.reconstruct_channel.self_s": (
                per_call(own["channel.reconstruct_channel"]), "s"),
            "channel.average_gate_fidelity.s": (
                per_call(inclusive["channel.average_gate_fidelity"]), "s"),
            "cli.run_experiment.self_s": (per_call(own[ROOT]), "s"),
        }

    def dump(self, path: str):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts),
                       "values": dict(self.values),
                       "aggregated": {str(k): t for k, t in self.aggregated.items()}}, fh)


# -- observers: counts taken at the layer boundary ------------------------

def _driven_steps(tracer, args, result):
    h = args["h"]
    if hasattr(h, "amplitude"):  # DrivenOperator: the drive varies in time
        tracer.values["driven_steps"] += math.ceil(args["t_final"] / args["dt"])


def _trajectory(tracer, args, result):
    _driven_steps(tracer, args, result)
    tracer.values["trajectory_steps"] += result.metadata["n_steps"]


def _density_final(tracer, args, result):
    _driven_steps(tracer, args, result)
    rhos = np.asarray(args["rhos"])
    tracer.values["operators"] += 1 if rhos.ndim == 2 else rhos.shape[0]


def _generator_built(tracer, args, result):
    gen = args["self"]
    dim = max(len(chain["idx"]) for chain in gen.chains)
    tracer.values["chain_dim_max"] = max(tracer.values["chain_dim_max"], dim)


def _generator_evolved(tracer, args, result):
    """Computed flops of the repeated squaring: 8 d^3 real flops per complex
    d x d product, one product per squaring, for every chain the input
    touches.  Mirrors the documented powering rule: final-state-only
    evolution of a constant generator with the step count rounded up to a
    power of two."""
    gen = args["self"]
    if not gen.is_constant or args["sample_steps"] is not None:
        return
    n_steps = args["n_steps"]
    if n_steps is None:
        n_steps = 1 << max(1, math.ceil(math.log2(max(2.0, args["t_final"] / args["dt"]))))
    squarings = max(0, int(n_steps).bit_length() - 1)
    rhos = np.asarray(args["rhos"])
    dim = gen.space.dim
    vec = rhos.reshape(-1, dim * dim)
    for chain in gen.chains:
        if np.any(vec[:, chain["idx"]]):
            tracer.values["power_flop"] += 8.0 * len(chain["idx"]) ** 3 * squarings


def _channel(tracer, args, result):
    # the enclosing run_experiment call is the one not yet counted
    tracer.channels.append((tracer.counts[ROOT], np.array(result.images)))


OBSERVERS = {
    "propagate.evolve_state": _trajectory,
    "propagate.evolve_density": _trajectory,
    "propagate.evolve_states_final": _driven_steps,
    "propagate.evolve_density_final": _density_final,
    "propagate.LindbladGenerator": _generator_built,
    "propagate.LindbladGenerator.evolve": _generator_evolved,
    "channel.reconstruct_channel": _channel,
}


def install(tracer: Tracer):
    """Wrap the entry points of every cavityfredkin module in place."""
    import cavityfredkin.cli  # noqa: F401  (imports every layer)

    package = {name: mod for name, mod in sys.modules.items()
               if name == "cavityfredkin" or name.startswith("cavityfredkin.")}
    for modname, attr in FUNCTIONS:
        original = getattr(package["cavityfredkin." + modname], attr)
        span = f"{modname}.{attr}"
        wrapped = tracer.wrap(span, original, OBSERVERS.get(span))
        for mod in package.values():
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapped)
    for modname, clsname, attr, span in METHODS:
        cls = getattr(package["cavityfredkin." + modname], clsname)
        setattr(cls, attr, tracer.wrap(span, vars(cls)[attr], OBSERVERS.get(span)))
