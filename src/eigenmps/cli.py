"""Command-line driver: `run` executes a sweep from a JSON config and writes a
self-contained record; `analyze` audits an exported MPS or a record file.

Exit codes: 0 success, 2 validation/parse failure, 3 I/O failure,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import sys
import tempfile
from dataclasses import asdict, dataclass, field, fields
from typing import Callable

import numpy as np

from . import __version__
from .ansatz import build_mps_ansatz, cnot_lower_bound, cost_estimate, ebit_bound, prepare_state
from .errors import CapacityError, NumericalError, ValidationError
from .oracle import (
    MAX_DENSE_QUBITS,
    BlackBoxUnitary,
    default_sat_time,
    from_dense_matrix,
    from_hamiltonian_evolution,
    from_sat_instance,
    parse_dimacs,
    planted_unitary,
    read_dense_matrix_json,
)
from .oracle import tfi_hamiltonian as _tfi_hamiltonian  # the name bench/ calls and traces
from .simulator import MAX_QUBITS
from .tensor import mps_from_json, mps_to_json, mps_to_statevector, schmidt_spectra
from .tensor import statevector_to_mps, truncate
from .vqa import DEFAULT_CERT_TOL, OptimizerConfig, run_sweep

ORACLE_TYPES = ("dimacs", "dense", "hamiltonian", "planted")
HAMILTONIAN_PRESETS = ("tfi",)
# analyze takes a normalized state; records come out normalized to about 1e-15
MPS_NORM_TOL = 1e-8


@dataclass
class OracleSpec:
    type: str
    path: str | None = None
    preset: str | None = None
    t: float | None = None
    params: dict = field(default_factory=dict)
    planted: dict | None = None


@dataclass
class RunConfig:
    n: int
    k_max: int
    oracle: OracleSpec
    optimizer: OptimizerConfig
    shots: int = 0
    cert_tol: float = DEFAULT_CERT_TOL
    output_path: str = "run_record.json"


# The config schema: the keys each JSON object accepts, by its dotted path ("" is the top).
CONFIG_SCHEMA = {
    "": (*(f.name for f in fields(RunConfig)), "seed"),  # the seed goes to the optimizer
    "oracle": tuple(f.name for f in fields(OracleSpec)),
    "oracle.params": ("coupling", "field"),
    "oracle.planted": ("k", "seed", "phases_seed"),
    "optimizer": tuple(f.name for f in fields(OptimizerConfig) if f.name != "seed"),
}
# What each scalar key converts to; the other keys are checked against their choices.
FIELD_TYPES = {
    **dict.fromkeys("n k_max shots seed max_iters restarts k phases_seed".split(), int),
    **dict.fromkeys("cert_tol t tol_loss coupling field".split(), float),
    **dict.fromkeys("path output_path".split(), str),
}


def _convert(value, convert, name: str):
    """convert(value) for an int field (a JSON integer), a float field (a JSON number) or
    a str field; a bool, a numeric string or a non-finite float is a ValidationError."""
    kind = {int: "an integer", float: "a number", str: "a string"}[convert]
    accepted = {int: (int,), float: (int, float), str: (str,)}[convert]
    if type(value) not in accepted:  # type(): a bool is an int subclass but no number here
        raise ValidationError(f"{name} must be {kind}, got {value!r}")
    try:
        result = convert(value)
    except OverflowError:
        raise ValidationError(f"{name} must be {kind}, got {value!r}") from None
    if convert is float and not math.isfinite(result):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return result


def _entries(obj, path: str = "") -> dict:
    """obj's entries, checked against CONFIG_SCHEMA[path] and converted, nested objects too."""
    if not isinstance(obj, dict):
        what = path or "config"
        raise ValidationError(f"{what} must be a JSON object, got {type(obj).__name__}")
    entries = {}
    for key, value in obj.items():
        name = f"{path}.{key}" if path else key
        if key not in CONFIG_SCHEMA[path]:
            raise ValidationError(f"unknown config key {name!r}")
        if name in CONFIG_SCHEMA:
            value = _entries(value, name)
        elif key in FIELD_TYPES and not (value is None and key in ("path", "t")):  # None: default
            value = _convert(value, FIELD_TYPES[key], name)
        entries[key] = value
    return entries


def config_from_dict(obj: dict) -> RunConfig:
    """Validate a raw config dict; all checks happen before any compute.

    Only the keys present are converted, so each default lives in its dataclass.
    """
    top = _entries(obj)
    for key in ("n", "k_max", "oracle"):
        if key not in top:
            raise ValidationError(f"config is missing required key {key!r}")
    n, k_max = top["n"], top["k_max"]
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    if n > MAX_QUBITS:
        raise CapacityError(f"n={n} exceeds the simulator cap of {MAX_QUBITS} qubits")
    if not 0 <= k_max <= n // 2:
        raise ValidationError(f"k_max={k_max} outside valid range [0, {n // 2}] for n={n}")
    build_mps_ansatz(n, k_max)  # its block-width cap, checked before any budget runs

    kind = top["oracle"].get("type")
    if kind not in ORACLE_TYPES:
        raise ValidationError(f"oracle type must be one of {ORACLE_TYPES}, got {kind!r}")
    oracle = top["oracle"] = OracleSpec(**top["oracle"])
    if kind in ("dimacs", "dense") and not oracle.path:
        raise ValidationError(f"oracle type {kind!r} requires a 'path'")
    if kind == "hamiltonian" and oracle.preset not in HAMILTONIAN_PRESETS:
        raise ValidationError(
            f"hamiltonian preset must be one of {HAMILTONIAN_PRESETS}, got {oracle.preset!r}"
        )
    if kind == "planted":
        planted = oracle.planted
        if planted is None:
            raise ValidationError("oracle type 'planted' requires a 'planted' object")
        for key in CONFIG_SCHEMA["oracle.planted"]:
            if key not in planted:
                raise ValidationError(f"planted oracle spec is missing {key!r}")
            if planted[key] < 0:  # numpy seeds must be non-negative
                raise ValidationError(f"oracle.planted.{key} must be >= 0, got {planted[key]}")
        build_mps_ansatz(n, planted["k"])  # the budget range and block-width cap
    if kind != "dimacs" and n > MAX_DENSE_QUBITS:
        raise CapacityError(f"dense oracles are capped at {MAX_DENSE_QUBITS} qubits, got n={n}")

    optimizer = top.get("optimizer", {})
    if "seed" in top:
        optimizer["seed"] = top.pop("seed")
    top["optimizer"] = OptimizerConfig(**optimizer)
    config = RunConfig(**top)
    if config.shots < 0:
        raise ValidationError(f"shots must be >= 0, got {config.shots}")
    if config.shots and config.optimizer.method not in (None, "spsa"):
        raise ValidationError(f"shots > 0 needs optimizer method null or 'spsa', "
                              f"got {config.optimizer.method!r}")
    if not 0.0 <= config.cert_tol < 1.0:
        raise ValidationError(f"cert_tol must lie in [0, 1), got {config.cert_tol}")
    return config


def config_to_dict(config: RunConfig) -> dict:
    """Canonical JSON form of a config; accepted back by config_from_dict."""
    oracle = {key: value for key, value in asdict(config.oracle).items() if value is not None}
    if not oracle["params"]:
        del oracle["params"]
    optimizer = asdict(config.optimizer)
    seed = optimizer.pop("seed")  # written as the top-level seed
    return {
        "n": config.n,
        "k_max": config.k_max,
        "oracle": oracle,
        "optimizer": optimizer,
        "shots": config.shots,
        "cert_tol": config.cert_tol,
        "seed": seed,
        "output_path": config.output_path,
    }


def read_input(path: str, parse: Callable[[str], object] = json.loads, encoding: str = "utf-8"):
    """parse() of the text of the file at path: every file the CLI reads comes in here.

    Undecodable text, unparsable JSON and parse's ValidationErrors name the path;
    a file that cannot be opened or read stays an OSError.
    """
    with open(path, "r", encoding=encoding) as fh:
        try:
            return parse(fh.read())
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: not {encoding} text at byte {exc.start}") from exc
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
        except ValueError as exc:  # json.loads past the int digit limit: no JSONDecodeError
            if "integer string conversion" not in str(exc):
                raise
            raise ValidationError(f"{path}: invalid JSON: an integer literal is too long") from exc
        except ValidationError as exc:  # a format error inside the file; keeps its class
            exc.args = (f"{path}: {exc}",)
            raise


def build_oracle(config: RunConfig) -> BlackBoxUnitary:
    spec = config.oracle
    if spec.type == "dimacs":
        sat = read_input(spec.path, parse_dimacs, encoding="ascii")
        if sat.num_vars != config.n:
            raise ValidationError(
                f"DIMACS instance has {sat.num_vars} variables but config says n={config.n}"
            )
        t = spec.t if spec.t is not None else default_sat_time(len(sat.clauses))
        return from_sat_instance(sat, t)
    if spec.type == "dense":
        matrix = read_input(spec.path, lambda text: read_dense_matrix_json(json.loads(text)))
        oracle = from_dense_matrix(matrix)
        if oracle.n != config.n:
            raise ValidationError(f"dense oracle is on {oracle.n} qubits, config says {config.n}")
        return oracle
    if spec.type == "hamiltonian":  # preset "tfi"
        coupling = spec.params.get("coupling", 1.0)
        transverse = spec.params.get("field", 1.0)
        t = spec.t if spec.t is not None else 1.0
        return from_hamiltonian_evolution(_tfi_hamiltonian(config.n, coupling, transverse), t)
    planted = spec.planted
    circuit = build_mps_ansatz(config.n, planted["k"])
    theta_star = np.random.default_rng(planted["seed"]).uniform(
        0.0, 2.0 * np.pi, circuit.total_params
    )
    phases = np.random.default_rng(planted["phases_seed"]).uniform(
        0.0, 2.0 * np.pi, 2**config.n
    )
    return planted_unitary(circuit, theta_star, phases)


def main_run(config: RunConfig) -> dict:
    """Execute the sweep, build the run record and persist it atomically."""
    if not os.path.isdir(os.path.dirname(os.path.abspath(config.output_path))):  # before the sweep
        raise FileNotFoundError(f"no directory to write {config.output_path} in")
    q = build_oracle(config)
    result = run_sweep(
        config.n,
        config.k_max,
        q,
        config.optimizer,
        cert_tol=config.cert_tol,
        shots=config.shots,
    )
    best = max(result.per_k, key=lambda e: (e.certificate, -e.k))
    best_circuit = build_mps_ansatz(config.n, best.k)
    best_state = prepare_state(best_circuit, best.theta)
    best_mps = statevector_to_mps(best_state)

    bond_rank = 2**best.k
    total_iters = sum(len(entry.trace) for entry in result.per_k)
    audit = [
        {"cut": data.cut, "rank": data.rank_eps, "ebits": data.ebits}
        for data in schmidt_spectra(best_state)
    ]
    entangling_blocks = config.n - best.k if best.k >= 1 else 0
    record = {
        "version": __version__,
        "config": config_to_dict(config),
        "per_k": [
            {
                "k": entry.k,
                "loss": entry.loss,
                "certificate": entry.certificate,
                "iterations": len(entry.trace),
                "wall_time_s": entry.wall_time_s,
                "theta": np.mod(entry.theta, 2.0 * np.pi).tolist(),
            }
            for entry in result.per_k
        ],
        "best_k": best.k,
        "terminated_early": result.terminated_early,
        "termination_reason": result.reason,
        "mps": mps_to_json(best_mps),
        "resources": {
            "rank": bond_rank,
            "cnot_lower_bound": cnot_lower_bound(bond_rank) if bond_rank >= 2 else 0.0,
            "cost_estimate": cost_estimate(config.n, bond_rank, max(1, total_iters)),
            "ebit_bound": ebit_bound(config.n, entangling_blocks),
            "ebit_audit": audit,
        },
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    write_json_atomic(record, config.output_path)
    return record


def _parse_mps(text: str) -> tuple:
    """The normalized MPS of an exported MPS or a run record, and its contracted state."""
    obj = json.loads(text)
    if isinstance(obj, dict) and "mps" in obj:
        obj = obj["mps"]
    if not isinstance(obj, dict) or "tensors" not in obj:
        raise ValidationError("neither an exported MPS nor a run record")
    mps = mps_from_json(obj)  # checks n against MAX_QUBITS before any contraction
    state = mps_to_statevector(mps)
    norm = state.norm()
    if not abs(norm - 1.0) <= MPS_NORM_TOL:
        raise ValidationError(f"MPS norm is {norm:.6g}; analyze takes a normalized state "
                              f"(norm 1 within {MPS_NORM_TOL:g}), not a zero or scaled one")
    return mps, state


def main_analyze(path: str, out=sys.stdout) -> dict:
    """Schmidt spectra, rank, per-cut ebits and a truncation-error table."""
    mps, state = read_input(path, _parse_mps)
    n = state.n
    cuts = []
    print(f"{n}-qubit MPS, bond dimensions {list(mps.bond_dims)}", file=out)
    print("cut  rank  ebits      leading singular values", file=out)
    for data in schmidt_spectra(state):
        cuts.append({"cut": data.cut, "rank": data.rank_eps, "ebits": data.ebits})
        lead = ", ".join(f"{s:.6f}" for s in data.singular_values[:4])
        print(f"{data.cut:3d}  {data.rank_eps:4d}  {data.ebits:9.6f}  {lead}", file=out)
    max_rank = max((c["rank"] for c in cuts), default=1)  # a normalized state has rank >= 1
    bound = ebit_bound(n, n)  # depth bound with one entangling block per site
    print(f"max rank {max_rank} -> {math.log2(max_rank):.3f} ebits; "
          f"half-chain cap {bound}", file=out)

    table = []
    print("trunc r  eps          err1         err2", file=out)
    for r in range(1, max_rank + 1):
        _, eps, err1, err2 = truncate(mps, r)
        table.append({"r": r, "eps": eps, "err1": err1, "err2": err2})
        print(f"{r:7d}  {eps:.5e}  {err1:.5e}  {err2:.5e}", file=out)
    return {"n": n, "bond_dims": list(mps.bond_dims), "cuts": cuts, "truncation": table}


def format_float(x: float) -> str:
    """17 significant digits, enough to round-trip any float64 exactly."""
    if not math.isfinite(x):
        raise ValidationError(f"cannot serialize non-finite float {x!r}")
    return format(x, ".17g")


def dumps_json(obj) -> str:
    """Deterministic JSON text with 17-significant-digit floats."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(dumps_json(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = [f"{json.dumps(str(k))}: {dumps_json(v)}" for k, v in obj.items()]
        return "{" + ", ".join(items) + "}"
    raise ValidationError(f"cannot serialize {type(obj).__name__} to JSON")


def write_json_atomic(obj: dict, path: str) -> None:
    """Write via a temp file in the target directory, then rename."""
    text = dumps_json(obj)
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.write("\n")
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eigenmps",
        description="Variational bounded-rank MPS approximation of a black-box unitary's eigenvector",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="execute a sweep from a JSON config file")
    run.add_argument("config", help="path to the run config JSON")
    run.add_argument("--seed", type=int, default=None, help="override the config seed")
    run.add_argument("--output", default=None, help="override the output path")
    run.add_argument("--shots", type=int, default=None, help="override the shot count")
    analyze = sub.add_parser("analyze", help="audit an exported MPS or run record")
    analyze.add_argument("path", help="path to an MPS export or run record JSON")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            raw = read_input(args.config)
            overrides = {"seed": args.seed, "shots": args.shots, "output_path": args.output}
            if isinstance(raw, dict):  # anything else is rejected by config_from_dict
                raw.update((key, value) for key, value in overrides.items() if value is not None)
            config = config_from_dict(raw)
            record = main_run(config)
            for entry in record["per_k"]:
                print(
                    f"k={entry['k']}: loss={entry['loss']:.3e} "
                    f"certificate={entry['certificate']:.12f} "
                    f"({entry['iterations']} iterations)"
                )
            print(f"best k={record['best_k']}; record written to {config.output_path}")
        else:
            main_analyze(args.path)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4
    return 0


def entrypoint() -> None:
    sys.exit(main())
