"""The module names that bench/spans.py wraps stay in the program.

The benchmark times set-up and solve, and counts shot evaluations, through
these names; a refactor that drops one would leave its probe silently empty.
"""

import os
import sys

import numpy as np

from eigenmps import cli, vqa
from eigenmps.oracle import BlackBoxUnitary

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))
from spans import PROBE_LAYERS, Tracer  # noqa: E402


def test_every_traced_name_is_in_the_program():
    assert Tracer().absent == []


def test_probes_see_the_build_the_sweep_and_every_shot_evaluation(tmp_path):
    # SPSA samples theta0, two points per iteration and its final point: 2 max_iters + 2
    config = cli.config_from_dict({
        "n": 2,
        "k_max": 1,
        "oracle": {"type": "hamiltonian", "preset": "tfi"},
        "optimizer": {"method": None, "max_iters": 5, "restarts": 1},
        "shots": 16,
        "seed": 3,
        "output_path": str(tmp_path / "record.json"),
    })
    probe = Tracer(PROBE_LAYERS)
    with probe:
        record = cli.main_run(config)
    names = probe.spans.names
    assert names.count("oracle.build") == 1 and names.count("vqa.run_sweep") == 1
    assert len(record["per_k"]) == 2  # neither budget certifies
    assert names.count("simulator.sample_probs") == 2 * (2 * 5 + 2)


def test_every_objective_evaluation_builds_its_blocks_through_the_traced_name():
    # the --trace 1 block layer: one ansatz.block_matrices span per lbfgs objective call
    phases = np.exp(1j * np.random.default_rng(5).uniform(0, 2 * np.pi, 2**5))
    q = BlackBoxUnitary(5, "diagonal-phase", phases=phases)
    tracer = Tracer()
    with tracer:
        vqa.run_sweep(0, q, vqa.OptimizerConfig(method="lbfgs", max_iters=20, seed=1))
    names = tracer.spans.names
    assert names.count("vqa.objective") > 1
    assert names.count("ansatz.block_matrices") == names.count("vqa.objective")
