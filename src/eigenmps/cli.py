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
from dataclasses import asdict, dataclass, field

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
from .tensor import (
    DEFAULT_SV_TOL,
    mps_from_json,
    mps_to_json,
    mps_to_statevector,
    schmidt_spectra,
    statevector_to_mps,
    truncate,
)
from .vqa import OptimizerConfig, run_sweep

ORACLE_TYPES = ("dimacs", "dense", "hamiltonian", "planted")
HAMILTONIAN_PRESETS = ("tfi", "sat")


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
    warm_start: bool = True
    cert_tol: float = 1e-6
    output_path: str = "run_record.json"


def _convert(value, convert, name: str):
    """convert(value), with a value it cannot convert reported as a ValidationError."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError):
        kind = "an integer" if convert is int else "a number"
        raise ValidationError(f"{name} must be {kind}, got {value!r}") from None


def config_from_dict(obj: dict) -> RunConfig:
    """Validate a raw config dict; all checks happen before any compute."""
    if not isinstance(obj, dict):
        raise ValidationError(f"config must be a JSON object, got {type(obj).__name__}")
    for key in ("n", "k_max", "oracle"):
        if key not in obj:
            raise ValidationError(f"config is missing required key {key!r}")
    n = _convert(obj["n"], int, "n")
    k_max = _convert(obj["k_max"], int, "k_max")
    if n < 1:
        raise ValidationError(f"n must be >= 1, got {n}")
    if n > MAX_QUBITS:
        raise CapacityError(f"n={n} exceeds the simulator cap of {MAX_QUBITS} qubits")
    if not 0 <= k_max <= n // 2:
        raise ValidationError(f"k_max={k_max} outside valid range [0, {n // 2}] for n={n}")

    raw_oracle = obj["oracle"]
    if not isinstance(raw_oracle, dict) or "type" not in raw_oracle:
        raise ValidationError("oracle must be an object with a 'type' key")
    kind = raw_oracle["type"]
    if kind not in ORACLE_TYPES:
        raise ValidationError(f"oracle type must be one of {ORACLE_TYPES}, got {kind!r}")
    if not isinstance(raw_oracle.get("params") or {}, dict):
        raise ValidationError("oracle.params must be an object")
    path = raw_oracle.get("path")
    if path is not None and not isinstance(path, str):
        raise ValidationError(f"oracle.path must be a string, got {path!r}")
    oracle = OracleSpec(
        type=kind,
        path=path,
        preset=raw_oracle.get("preset"),
        t=None if raw_oracle.get("t") is None else _convert(raw_oracle["t"], float, "oracle.t"),
        params=dict(raw_oracle.get("params") or {}),
        planted=raw_oracle.get("planted"),
    )
    for key in ("coupling", "field"):
        if key in oracle.params:
            oracle.params[key] = _convert(oracle.params[key], float, f"oracle.params.{key}")
    if kind in ("dimacs", "dense") and not oracle.path:
        raise ValidationError(f"oracle type {kind!r} requires a 'path'")
    if kind == "hamiltonian":
        if oracle.preset not in HAMILTONIAN_PRESETS:
            raise ValidationError(
                f"hamiltonian preset must be one of {HAMILTONIAN_PRESETS}, got {oracle.preset!r}"
            )
        if oracle.preset == "sat" and not oracle.path:
            raise ValidationError("hamiltonian preset 'sat' requires a 'path'")
    if kind == "planted":
        if not isinstance(oracle.planted, dict):
            raise ValidationError("oracle type 'planted' requires a 'planted' object")
        planted = oracle.planted = dict(oracle.planted)
        for key in ("k", "seed", "phases_seed"):
            if key not in planted:
                raise ValidationError(f"planted oracle spec is missing {key!r}")
            planted[key] = _convert(planted[key], int, f"planted.{key}")
        if not 0 <= planted["k"] <= n // 2:
            raise ValidationError(f"planted k={planted['k']} outside [0, {n // 2}]")
    dense = kind in ("dense", "planted") or (kind == "hamiltonian" and oracle.preset == "tfi")
    if dense and n > MAX_DENSE_QUBITS:
        raise CapacityError(f"dense oracles are capped at {MAX_DENSE_QUBITS} qubits, got n={n}")

    raw_opt = obj.get("optimizer") or {}
    if not isinstance(raw_opt, dict):
        raise ValidationError("optimizer must be an object")
    optimizer = OptimizerConfig(
        method=raw_opt.get("method"),
        max_iters=_convert(raw_opt.get("max_iters", 500), int, "optimizer.max_iters"),
        tol_loss=_convert(raw_opt.get("tol_loss", 1e-10), float, "optimizer.tol_loss"),
        fd_step=_convert(raw_opt.get("fd_step", 1e-5), float, "optimizer.fd_step"),
        restarts=_convert(raw_opt.get("restarts", 1), int, "optimizer.restarts"),
        seed=_convert(obj.get("seed", 0), int, "seed"),
    )
    shots = _convert(obj.get("shots", 0), int, "shots")
    if shots < 0:
        raise ValidationError(f"shots must be >= 0, got {shots}")
    warm_start = obj.get("warm_start", True)
    if not isinstance(warm_start, bool):
        raise ValidationError(f"warm_start must be true or false, got {warm_start!r}")
    cert_tol = _convert(obj.get("cert_tol", 1e-6), float, "cert_tol")
    if not 0.0 <= cert_tol < 1.0:
        raise ValidationError(f"cert_tol must lie in [0, 1), got {cert_tol}")
    output_path = obj.get("output_path", "run_record.json")
    if not isinstance(output_path, str):
        raise ValidationError(f"output_path must be a string, got {output_path!r}")
    return RunConfig(
        n=n,
        k_max=k_max,
        oracle=oracle,
        optimizer=optimizer,
        shots=shots,
        warm_start=warm_start,
        cert_tol=cert_tol,
        output_path=output_path,
    )


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
        "warm_start": config.warm_start,
        "cert_tol": config.cert_tol,
        "seed": seed,
        "output_path": config.output_path,
    }


def build_oracle(config: RunConfig) -> BlackBoxUnitary:
    spec = config.oracle
    if spec.type == "dimacs" or (spec.type == "hamiltonian" and spec.preset == "sat"):
        with open(spec.path, "r", encoding="ascii") as fh:
            sat = parse_dimacs(fh.read())
        if sat.num_vars != config.n:
            raise ValidationError(
                f"DIMACS instance has {sat.num_vars} variables but config says n={config.n}"
            )
        t = spec.t if spec.t is not None else default_sat_time(len(sat.clauses))
        return from_sat_instance(sat, t)
    if spec.type == "dense":
        with open(spec.path, "r", encoding="ascii") as fh:
            matrix = read_dense_matrix_json(json.load(fh))
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
    q = build_oracle(config)
    result = run_sweep(
        config.n,
        config.k_max,
        q,
        config.optimizer,
        warm_start=config.warm_start,
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


def main_analyze(path: str, out=sys.stdout) -> dict:
    """Schmidt spectra, rank, per-cut ebits and a truncation-error table."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if isinstance(obj, dict) and "mps" in obj:
        obj = obj["mps"]
    if not isinstance(obj, dict) or "tensors" not in obj:
        raise ValidationError(f"{path}: neither an exported MPS nor a run record")
    mps = mps_from_json(obj)
    state = mps_to_statevector(mps)
    n = state.n

    cuts = []
    print(f"{n}-qubit MPS, bond dimensions {list(mps.bond_dims)}", file=out)
    print("cut  rank  ebits      leading singular values", file=out)
    for data in schmidt_spectra(state):
        cuts.append({"cut": data.cut, "rank": data.rank_eps, "ebits": data.ebits})
        lead = ", ".join(f"{s:.6f}" for s in data.singular_values[:4])
        print(f"{data.cut:3d}  {data.rank_eps:4d}  {data.ebits:9.6f}  {lead}", file=out)
    # with no cut (n=1) the state's one singular value is its norm
    max_rank = max((c["rank"] for c in cuts), default=int(state.norm() > DEFAULT_SV_TOL))
    if max_rank == 0:
        raise ValidationError(f"{path}: zero MPS (no singular value above {DEFAULT_SV_TOL:g})")
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
            with open(args.config, "r", encoding="utf-8") as fh:
                try:
                    raw = json.load(fh)
                except json.JSONDecodeError as exc:
                    raise ValidationError(
                        f"{args.config}: invalid JSON at line {exc.lineno}: {exc.msg}"
                    ) from exc
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
