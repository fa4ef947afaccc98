"""Spans around the module-level names through which eigenmps calls its layers.

A `Tracer` replaces each listed module attribute with a wrapper that records
one span per call: layer name, start, end and the index of the enclosing
span.  The program resolves these names at call time, so the wrapper sees
every call made through that module; the same function imported into several
modules is wrapped once per importing module.  Names missing from the
program (for instance after a refactor renames them) are reported as absent
instead of failing.  Spans are kept in memory for one operation and reduced
to per-layer call counts and self times by `summarize`.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field

# layer name -> (module, attribute) pairs that route calls into that layer
LAYER_NAMES: dict[str, tuple[tuple[str, str], ...]] = {
    "simulator.apply": (
        ("eigenmps.vqa", "apply_matrix_raw"),
        ("eigenmps.ansatz", "apply_matrix_raw"),
        ("eigenmps.simulator", "apply_matrix_raw"),
    ),
    "simulator.sample_probs": (("eigenmps.vqa", "sample_probs"),),
    "ansatz.block_matrices": (
        ("eigenmps.vqa", "block_matrices"),
        ("eigenmps.ansatz", "block_matrices"),
    ),
    "ansatz.embed_parameters": (("eigenmps.vqa", "embed_parameters"),),
    "oracle.apply": (("eigenmps.vqa", "oracle_apply_raw"), ("eigenmps.oracle", "apply_raw")),
    "oracle.build": (("eigenmps.cli", "build_oracle"),),
    "oracle.hamiltonian": (
        ("eigenmps.cli", "_tfi_hamiltonian"),
        ("eigenmps.oracle", "tfi_hamiltonian"),
        ("eigenmps.oracle", "_tfi_hamiltonian"),
    ),
    "oracle.evolution": (("eigenmps.cli", "from_hamiltonian_evolution"),),
    # the optimizer's objective is wrapped through vqa.minimize's first argument
    "vqa.objective": (("eigenmps.vqa", "objective_report"),),
    "vqa.marginals": (("eigenmps.vqa", "_qubit_zero_probs"),),
    "vqa.minimize": (("eigenmps.vqa", "minimize"),),
    "vqa.run_sweep": (("eigenmps.cli", "run_sweep"),),
    "tensor.statevector_to_mps": (("eigenmps.cli", "statevector_to_mps"),),
    "tensor.schmidt_spectrum": (
        ("eigenmps.cli", "schmidt_spectrum"),
        ("eigenmps.tensor", "schmidt_spectrum"),
    ),
    "cli.write_json_atomic": (("eigenmps.cli", "write_json_atomic"),),
    "cli.main_analyze": (("eigenmps.cli", "main_analyze"),),
}

# Untraced runs wrap only these: set-up and solve need their own clocks, and
# the shot budget check needs the number of sampled evaluations.
PROBE_LAYERS = ("oracle.build", "vqa.run_sweep", "simulator.sample_probs")


@dataclass
class Spans:
    """Spans of one operation, in start order, plus restart outcomes."""

    names: list[str] = field(default_factory=list)
    starts: list[float] = field(default_factory=list)
    ends: list[float] = field(default_factory=list)
    parents: list[int] = field(default_factory=list)
    restart_certificates: list[float] = field(default_factory=list)
    oracle: object = None  # last value cli.build_oracle returned


class Tracer:
    """Installs span wrappers for the given layers while used as a context."""

    def __init__(self, layers=tuple(LAYER_NAMES)):
        self.layers = tuple(layers)
        self.spans = Spans()
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self._restart_pending = False
        self.absent = [
            layer
            for layer in self.layers
            if not any(hasattr(importlib.import_module(m), a) for m, a in LAYER_NAMES[layer])
        ]

    def reset(self) -> Spans:
        """Start a new operation; return the spans of the previous one."""
        done, self.spans = self.spans, Spans()
        self._restart_pending = False
        return done

    def wrap(self, layer: str, fn):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            s = self.spans
            index = len(s.names)
            s.names.append(layer)
            s.parents.append(stack[-1] if stack else -1)
            s.ends.append(0.0)
            stack.append(index)
            s.starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                s.ends[index] = time.perf_counter()
                stack.pop()
            self._after(layer, result)
            return result

        return wrapper

    def _after(self, layer: str, result) -> None:
        if layer == "vqa.minimize":
            # run_sweep scores each restart with objective_report right after it
            self._restart_pending = True
        elif layer == "vqa.objective" and self._restart_pending:
            self.spans.restart_certificates.append(float(result.certificate))
            self._restart_pending = False
        elif layer == "oracle.build":
            self.spans.oracle = result

    def __enter__(self) -> "Tracer":
        for layer in self.layers:
            for module_name, attr in LAYER_NAMES[layer]:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    continue
                wrapped = self.wrap(layer, original)
                if layer == "vqa.minimize" and "vqa.objective" in self.layers:
                    wrapped = self._wrap_minimize(wrapped)
                setattr(module, attr, wrapped)
                self._installed.append((module, attr, original))
        return self

    def _wrap_minimize(self, minimize):
        """Route the optimizer's objective calls through a vqa.objective span."""

        @functools.wraps(minimize)
        def wrapper(objective, *args, **kwargs):
            return minimize(self.wrap("vqa.objective", objective), *args, **kwargs)

        return wrapper

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()


def summarize(spans: Spans) -> dict[str, dict[str, float]]:
    """Per layer: calls, total time and self time (total minus child spans)."""
    child = [0.0] * len(spans.names)
    for i, parent in enumerate(spans.parents):
        if parent >= 0:
            child[parent] += spans.ends[i] - spans.starts[i]
    out: dict[str, dict[str, float]] = {}
    for i, layer in enumerate(spans.names):
        duration = spans.ends[i] - spans.starts[i]
        entry = out.setdefault(layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += duration
        entry["self_s"] += duration - child[i]
    return out
