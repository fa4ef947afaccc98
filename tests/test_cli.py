import copy
import json

import numpy as np
import pytest

from conftest import ghz
from eigenmps import cli
from eigenmps.errors import CapacityError, NumericalError, ValidationError
from eigenmps.simulator import zero_state
from eigenmps.tensor import MpsState, mps_to_json, statevector_to_mps

TFI = {"type": "hamiltonian", "preset": "tfi", "params": {"coupling": 1.0, "field": 1.0}}
PLANTED = {"type": "planted", "planted": {"k": 1, "seed": 5, "phases_seed": 6}}


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def identity_oracle_file(tmp_path, n):
    dim = 2**n
    return write_json(
        tmp_path / "identity.json",
        {"n": n, "re": np.eye(dim).tolist(), "im": np.zeros((dim, dim)).tolist()},
    )


def base_config(tmp_path, n=3, **overrides):
    config = {
        "n": n,
        "k_max": 1,
        "oracle": {"type": "dense", "path": identity_oracle_file(tmp_path, n)},
        "optimizer": {"method": "nelder-mead", "max_iters": 50, "restarts": 1},
        "shots": 0,
        "warm_start": True,
        "cert_tol": 1e-6,
        "seed": 7,
        "output_path": str(tmp_path / "record.json"),
    }
    config.update(overrides)
    return config


def test_config_round_trip(tmp_path):
    raw = base_config(tmp_path)
    config = cli.config_from_dict(raw)
    echoed = cli.config_to_dict(config)
    assert cli.config_from_dict(echoed) == config


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda c: c.pop("n"), "missing"),
        (lambda c: c.update(k_max=5), "k_max"),
        (lambda c: c.update(oracle={"type": "mystery"}), "oracle type"),
        (lambda c: c.update(oracle={"type": "dimacs"}), "path"),
        (lambda c: c.update(oracle={"type": "hamiltonian", "preset": "hubbard"}), "preset"),
        (lambda c: c.update(oracle={"type": "planted", "planted": {"k": 1}}), "seed"),
        (lambda c: c.update(shots=-1), "shots"),
    ],
)
def test_config_validation_errors(tmp_path, mutate, fragment):
    raw = base_config(tmp_path)
    mutate(raw)
    with pytest.raises(ValidationError, match=fragment):
        cli.config_from_dict(raw)


def test_run_identity_oracle(tmp_path):
    config = cli.config_from_dict(base_config(tmp_path))
    record = cli.main_run(config)
    assert record["best_k"] == 0
    assert record["per_k"][0]["loss"] < 1e-12
    assert record["per_k"][0]["certificate"] == pytest.approx(1.0)
    assert record["terminated_early"]
    on_disk = json.loads((tmp_path / "record.json").read_text())
    assert on_disk["best_k"] == 0
    assert on_disk["mps"]["n"] == 3
    # the echoed config is itself a valid config
    assert cli.config_from_dict(on_disk["config"]).n == 3


def test_run_satisfiable_dimacs(tmp_path):
    dimacs = tmp_path / "inst.cnf"
    dimacs.write_text("c satisfiable\np cnf 4 2\n1 2 0\n-3 4 0\n")
    raw = base_config(
        tmp_path,
        n=4,
        oracle={"type": "dimacs", "path": str(dimacs), "t": 0.3},
        optimizer={"method": "nelder-mead", "max_iters": 400, "restarts": 3, "tol_loss": 1e-14},
    )
    record = cli.main_run(cli.config_from_dict(raw))
    best = max(record["per_k"], key=lambda e: e["certificate"])
    assert best["certificate"] >= 1 - 1e-6
    # best state is a computational basis state: rank 1 and a single dominant amplitude
    assert all(c["rank"] == 1 for c in record["resources"]["ebit_audit"])


def test_run_planted_certificates_monotone(tmp_path):
    raw = base_config(
        tmp_path,
        n=4,
        k_max=1,
        oracle={"type": "planted", "planted": {"k": 1, "seed": 5, "phases_seed": 6}},
        optimizer={"method": "fd-gradient-descent", "max_iters": 60, "restarts": 2},
        cert_tol=1e-9,
    )
    record = cli.main_run(cli.config_from_dict(raw))
    certs = [entry["certificate"] for entry in record["per_k"]]
    assert all(b >= a for a, b in zip(certs, certs[1:]))
    assert all(0.0 <= c <= 1.0 for c in certs)


def test_run_tfi_preset(tmp_path):
    raw = base_config(
        tmp_path,
        n=3,
        k_max=1,
        oracle={"type": "hamiltonian", "preset": "tfi", "t": 0.5,
                "params": {"coupling": 1.0, "field": 0.7}},
        optimizer={"method": "nelder-mead", "max_iters": 150, "restarts": 2},
    )
    record = cli.main_run(cli.config_from_dict(raw))
    assert record["per_k"][0]["certificate"] <= 1.0 + 1e-12


def test_analyze_ghz_and_product(tmp_path):
    ghz_path = write_json(tmp_path / "ghz.json", mps_to_json(statevector_to_mps(ghz(4))))
    report = cli.main_analyze(ghz_path)
    assert all(c["rank"] == 2 for c in report["cuts"])
    assert all(abs(c["ebits"] - 1.0) < 1e-10 for c in report["cuts"])

    product_path = write_json(
        tmp_path / "prod.json", mps_to_json(statevector_to_mps(zero_state(3)))
    )
    report = cli.main_analyze(product_path)
    assert all(c["rank"] == 1 for c in report["cuts"])
    assert all(abs(c["ebits"]) < 1e-12 for c in report["cuts"])


def test_analyze_accepts_run_record(tmp_path):
    config = cli.config_from_dict(base_config(tmp_path))
    cli.main_run(config)
    report = cli.main_analyze(str(tmp_path / "record.json"))
    assert report["n"] == 3


def test_analyze_rejects_malformed(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"neither": true}')
    with pytest.raises(ValidationError):
        cli.main_analyze(str(bad))


def test_cli_exit_codes(tmp_path, monkeypatch, capsys):
    # success
    config_path = write_json(tmp_path / "config.json", base_config(tmp_path))
    assert cli.main(["run", config_path]) == 0
    # validation error: malformed config json
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert cli.main(["run", str(broken)]) == 2
    # i/o error: missing file
    assert cli.main(["run", str(tmp_path / "nope.json")]) == 3
    # numerical failure class
    monkeypatch.setattr(cli, "main_run", lambda cfg: (_ for _ in ()).throw(NumericalError("boom")))
    assert cli.main(["run", config_path]) == 4
    capsys.readouterr()


def test_cli_overrides(tmp_path):
    raw = base_config(tmp_path)
    config_path = write_json(tmp_path / "config.json", raw)
    out = tmp_path / "other.json"
    assert cli.main(["run", config_path, "--seed", "99", "--output", str(out)]) == 0
    record = json.loads(out.read_text())
    assert record["config"]["seed"] == 99


def test_float_serialization_17_digits():
    assert cli.format_float(0.1) == "0.10000000000000001"
    text = cli.dumps_json({"x": [1e-6, 1.0, 2]})
    parsed = json.loads(text)
    assert parsed["x"][0] == 1e-6
    with pytest.raises(ValidationError):
        cli.format_float(float("inf"))


def test_reproducible_records(tmp_path):
    # identical config files give identical records up to timing fields
    config_path = write_json(tmp_path / "config.json", base_config(tmp_path))
    records = []
    for _ in range(2):
        assert cli.main(["run", config_path]) == 0
        rec = json.loads((tmp_path / "record.json").read_text())
        rec.pop("timestamp")
        for entry in rec["per_k"]:
            entry.pop("wall_time_s")
        records.append(cli.dumps_json(rec))
    assert records[0] == records[1]


def run_exit_code(tmp_path, capsys, raw):
    """Exit code of `eigenmps run` on the config, after checking stderr has no traceback."""
    code = cli.main(["run", write_json(tmp_path / "config.json", raw)])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return code, err


@pytest.mark.parametrize("bad", ["ten", [1]])
@pytest.mark.parametrize(
    "oracle, path",
    [
        (None, ("n",)),
        (None, ("k_max",)),
        (None, ("seed",)),
        (None, ("shots",)),
        (None, ("cert_tol",)),
        (None, ("oracle", "t")),
        (None, ("optimizer", "max_iters")),
        (None, ("optimizer", "tol_loss")),
        (None, ("optimizer", "fd_step")),
        (None, ("optimizer", "restarts")),
        (TFI, ("oracle", "params", "coupling")),
        (TFI, ("oracle", "params", "field")),
        (PLANTED, ("oracle", "planted", "k")),
        (PLANTED, ("oracle", "planted", "seed")),
        (PLANTED, ("oracle", "planted", "phases_seed")),
    ],
)
def test_non_numeric_config_field_exits_2(tmp_path, capsys, oracle, path, bad):
    raw = base_config(tmp_path)
    if oracle is not None:
        raw["oracle"] = copy.deepcopy(oracle)
    target = raw
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = bad
    code, err = run_exit_code(tmp_path, capsys, raw)
    assert code == 2
    assert path[-1] in err


@pytest.mark.parametrize("warm_start", ["false", 0, None])
def test_warm_start_must_be_a_json_boolean(tmp_path, capsys, warm_start):
    code, err = run_exit_code(tmp_path, capsys, base_config(tmp_path, warm_start=warm_start))
    assert code == 2
    assert "warm_start" in err


@pytest.mark.parametrize("cert_tol", [-1, -1e-9, 1.0, 2.5])
def test_cert_tol_outside_unit_interval_exits_2(tmp_path, capsys, cert_tol):
    code, err = run_exit_code(tmp_path, capsys, base_config(tmp_path, cert_tol=cert_tol))
    assert code == 2
    assert "cert_tol" in err


@pytest.mark.parametrize("kind", ["dimacs", "sat", "tfi", "planted", "dense"])
def test_capacity_checked_before_any_allocation(tmp_path, capsys, kind):
    # n=64 is far past every cap: the oracle build would ask for 2^64 entries
    cnf = tmp_path / "wide.cnf"
    cnf.write_text("p cnf 64 1\n1 -64 0\n")
    oracle = {
        "dimacs": {"type": "dimacs", "path": str(cnf)},
        "sat": {"type": "hamiltonian", "preset": "sat", "path": str(cnf)},
        "tfi": TFI,
        "planted": PLANTED,
        "dense": {"type": "dense", "path": identity_oracle_file(tmp_path, 1)},
    }[kind]
    raw = base_config(tmp_path, oracle=oracle)
    raw["n"] = 64
    code, err = run_exit_code(tmp_path, capsys, raw)
    assert code == 2
    assert "cap" in err


@pytest.mark.parametrize("oracle", [TFI, PLANTED, "dense"])
def test_dense_oracles_capped_at_config_time(tmp_path, oracle):
    # config_from_dict builds nothing, so a dense-only size is safe to pass here
    raw = base_config(tmp_path)
    raw["n"] = 13
    if oracle != "dense":
        raw["oracle"] = oracle
    with pytest.raises(CapacityError):
        cli.config_from_dict(raw)
    raw["oracle"] = {"type": "dimacs", "path": "wide.cnf"}
    assert cli.config_from_dict(raw).n == 13


def test_analyze_zero_mps_exits_2(tmp_path, capsys):
    zero = MpsState((np.zeros((1, 2, 1)),) * 3)
    path = write_json(tmp_path / "zero.json", mps_to_json(zero))
    assert cli.main(["analyze", path]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert "zero" in err
